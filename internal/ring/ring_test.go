package ring

import (
	"fmt"
	"testing"
)

// TestOwnerDeterministicAcrossConstruction: two rings built from the
// same member list agree on every key — the property the fleet relies
// on, since each node computes its own ring. Member-list order must not
// matter either: operators pass -peers in whatever order.
func TestOwnerDeterministicAcrossConstruction(t *testing.T) {
	a, err := New([]string{"http://n1:8080", "http://n2:8080", "http://n3:8080"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New([]string{"http://n3:8080", "http://n1:8080", "http://n2:8080"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("rings built from reordered members disagree on %q: %q vs %q",
				key, a.Owner(key), b.Owner(key))
		}
	}
}

// TestOwnerBalance: virtual points keep the key split between members
// within a loose band — no member starves or hogs.
func TestOwnerBalance(t *testing.T) {
	members := []string{"a", "b", "c", "d"}
	r, err := New(members)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	want := keys / len(members)
	for _, m := range members {
		if c := counts[m]; c < want/2 || c > want*2 {
			t.Fatalf("member %q owns %d of %d keys (fair share %d): split too skewed %v",
				m, c, keys, want, counts)
		}
	}
}

// TestOwnerStabilityUnderMembershipChange: removing one member from a
// 4-ring must remap only (about) that member's share — the consistent
// part of consistent hashing.
func TestOwnerStabilityUnderMembershipChange(t *testing.T) {
	full, err := New([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := New([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 10000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, after := full.Owner(key), reduced.Owner(key)
		if before == "d" {
			if after == "d" {
				t.Fatal("departed member still owns keys")
			}
			continue // its share must move somewhere
		}
		if before != after {
			moved++
		}
	}
	// Keys not owned by the departed member should essentially all stay
	// put; allow a tiny tolerance for point-adjacency effects.
	if moved > keys/50 {
		t.Fatalf("%d of %d keys not owned by the departed member were remapped", moved, keys)
	}
}

// TestRingValidation pins the construction error cases.
func TestRingValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty member list accepted")
	}
	if _, err := New([]string{"a", ""}); err == nil {
		t.Fatal("empty member accepted")
	}
	if _, err := New([]string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

// TestSingleMemberOwnsEverything: the degenerate one-node fleet routes
// every key to itself.
func TestSingleMemberOwnsEverything(t *testing.T) {
	r, err := New([]string{"solo"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if r.Owner(fmt.Sprintf("k%d", i)) != "solo" {
			t.Fatal("single-member ring routed a key elsewhere")
		}
	}
	if !r.Contains("solo") || r.Contains("ghost") {
		t.Fatal("Contains misreports membership")
	}
}
