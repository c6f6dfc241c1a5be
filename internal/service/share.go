package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"constable/internal/sim"
)

// ErrResultRejected marks a shared result that failed envelope verification:
// the envelope was undecodable, carried the wrong schema, or — the aliasing
// attack the content-addressed design exists to stop — recorded a hash that
// does not match the JobSpec hash it was requested under. A rejected result
// is never used; the consulting scheduler simulates locally instead and
// counts the rejection, so a corrupt or lying store degrades throughput, not
// correctness.
var ErrResultRejected = errors.New("service: shared result rejected")

// RemoteResultStore consults a constable-server's content-addressed result
// store over HTTP: GET /v1/results/{hash} before simulating, PUT
// /v1/results/{hash} after. Workers install one pointed at their server (so
// N workers simulate a popular cell once, not N times), and a federated
// dispatch server can install one pointed at an upstream results server.
// Every 200 response is verified with sim.ResultEnvelope.Open against the
// requested hash before use; a mismatched or undecodable envelope is
// rejected (ErrResultRejected), never trusted. A burst of identical
// submissions costs one GET, not one per cell: the consulting scheduler's
// in-flight dedup lets only the first submitter of a hash reach Lookup.
type RemoteResultStore struct {
	url    string
	client *http.Client
}

// NewRemoteResultStore returns a client for the result store of the server
// at baseURL (e.g. http://127.0.0.1:8080).
func NewRemoteResultStore(baseURL string) *RemoteResultStore {
	transport := http.DefaultTransport
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t = t.Clone()
		// A worker consults once per dispatched cell; keep the connections
		// warm across a chunk instead of churning handshakes.
		t.MaxIdleConnsPerHost = 16
		transport = t
	}
	return &RemoteResultStore{
		url:    baseURL,
		client: &http.Client{Timeout: 10 * time.Second, Transport: transport},
	}
}

// Lookup does one verified GET for hash. (nil, nil) is a miss (404); an
// error wrapping ErrResultRejected means the store answered with an envelope
// that failed hash/schema verification; any other error is a transport
// failure, which the caller treats as a miss.
func (rs *RemoteResultStore) Lookup(hash string) (*sim.RunResult, error) {
	resp, err := rs.client.Get(rs.url + "/v1/results/" + hash)
	if err != nil {
		return nil, fmt.Errorf("service: share lookup %.12s: %w", hash, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		var env sim.ResultEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			return nil, fmt.Errorf("%w: undecodable envelope for %.12s: %v", ErrResultRejected, hash, err)
		}
		res, err := env.Open(hash)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrResultRejected, err)
		}
		return res, nil
	case http.StatusNotFound:
		return nil, nil
	default:
		return nil, fmt.Errorf("service: share lookup %.12s: HTTP %d", hash, resp.StatusCode)
	}
}

// WriteBack publishes a locally simulated result under hash with an
// idempotent PUT; the receiving server re-verifies the envelope against the URL hash before storing it.
func (rs *RemoteResultStore) WriteBack(hash string, res *sim.RunResult) error {
	env := sim.NewResultEnvelope(hash, res)
	b, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("service: share write-back %.12s: %w", hash, err)
	}
	req, err := http.NewRequest(http.MethodPut, rs.url+"/v1/results/"+hash, bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("service: share write-back %.12s: %w", hash, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rs.client.Do(req)
	if err != nil {
		return fmt.Errorf("service: share write-back %.12s: %w", hash, err)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("service: share write-back %.12s: HTTP %d", hash, resp.StatusCode)
	}
	return nil
}
