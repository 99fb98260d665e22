package client

import (
	"context"
	"net/http"
	"net/url"
)

// TraceInfo is the server's description of an imported trace workload —
// the POST /v1/traces response.
type TraceInfo struct {
	Name      string `json:"name"`       // registry name, "trace:<bare>"
	Class     string `json:"class"`      // input class the records stand in for
	Identity  string `json:"identity"`   // hex skeleton identity
	Events    int    `json:"events"`     // retired-event count
	StaticIns int    `json:"static_ins"` // skeleton instruction count
}

// UploadTrace imports a codec-framed trace blob on the server under the
// given registry name ("trace:" prefix optional) and input class
// ("train" or "ref"; "" = train). The server validates the blob end to
// end before storing anything; oversized bodies come back as a 413
// *APIError. The import is content-addressed and idempotent, so
// transport faults are retried.
func (c *Client) UploadTrace(ctx context.Context, name, class string, blob []byte) (TraceInfo, error) {
	q := url.Values{"name": {name}}
	if class != "" {
		q.Set("class", class)
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/traces?"+q.Encode(), blob, true, retryableStatus)
	if err != nil {
		return TraceInfo{}, err
	}
	var info TraceInfo
	if err := decodeInto(resp, &info); err != nil {
		return TraceInfo{}, err
	}
	return info, nil
}
