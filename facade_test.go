package opgate

import (
	"strings"
	"testing"
	"time"

	"opgate/internal/uarch"
)

// TestSimulateRejectsBadConfig: a machine the timing core cannot model
// fails Simulate with an error naming the field, promptly, instead of
// hanging in the issue loop or panicking mid-run.
func TestSimulateRejectsBadConfig(t *testing.T) {
	p, err := Assemble(".func main\n\tmul r2, r2, #3\n\thalt\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		edit  func(*UarchConfig)
	}{
		{"IssueWidth", func(c *UarchConfig) { c.IssueWidth = 0 }},
		{"WindowSize", func(c *UarchConfig) { c.WindowSize = 0 }},
		{"IntALUs", func(c *UarchConfig) { c.IntALUs = -1 }},
		{"IntMulDiv", func(c *UarchConfig) { c.IntMulDiv = 0 }},
	} {
		cfg := uarch.DefaultConfig()
		tc.edit(&cfg)
		done := make(chan error, 1)
		go func() {
			_, err := Simulate(p, SimOptions{Gating: GateSoftware, Config: &cfg})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s: Simulate error = %v, want a rejection naming the field", tc.field, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Simulate did not return", tc.field)
		}
	}
}
