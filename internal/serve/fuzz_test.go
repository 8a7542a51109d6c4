package serve

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzParseJobRequest holds the parser to its contract: it never panics,
// every rejection wraps ErrRequest (so the transport can map the whole
// family to 400), and acceptance is deterministic — the same bytes always
// canonicalize to the same 64-hex-digit content address.
func FuzzParseJobRequest(f *testing.F) {
	valid := mustCaseInputText("paper5", 1, 3)
	seed := func(req JobRequest) {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(JobRequest{Input: valid})
	seed(JobRequest{Input: valid, Targets: []float64{1, 3, 6}})
	seed(JobRequest{Input: valid, Verify: "smt", MaxIterations: 50, Certify: true})
	seed(JobRequest{Input: valid, Verify: "shift", BlockPrecision: 0.5, States: true})
	seed(JobRequest{Input: valid, Targets: []float64{1, 3}, Certify: true})
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"input":""}`))
	f.Add([]byte(`{"input":"# topology\n"}`))
	f.Add([]byte(`{"input":"x","targets":[0]}`))
	f.Add([]byte(`{"input":"x","targets":[1e309]}`))
	f.Add([]byte(`{"input":"x","verify":"bogus"}`))
	f.Add([]byte(`{"input":"x","max_iterations":-1}`))
	f.Add([]byte(`{"input":"x","unknown_field":true}`))
	f.Add([]byte(`{"input":"x"}{"input":"y"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseJobRequest(data, Limits{})
		if err != nil {
			if !errors.Is(err, ErrRequest) {
				t.Fatalf("rejection does not wrap ErrRequest: %v", err)
			}
			if p != nil {
				t.Fatal("rejected request returned a parsed job")
			}
			return
		}
		if len(p.Key) != 64 {
			t.Fatalf("key %q is not a sha256 hex digest", p.Key)
		}
		if len(p.Targets) == 0 {
			t.Fatal("accepted job has no targets")
		}
		again, err := ParseJobRequest(data, Limits{})
		if err != nil {
			t.Fatalf("accepted bytes rejected on re-parse: %v", err)
		}
		if again.Key != p.Key {
			t.Fatalf("non-deterministic key: %s vs %s", p.Key, again.Key)
		}
	})
}
