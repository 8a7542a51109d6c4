package serve

import (
	"encoding/json"
	"strconv"
	"testing"
)

// BenchmarkSubmit times one submission answered at submit time, on the
// paper5 and ieee14 bodies of gridbench's serve-mix (scenario seed 1): a
// cache hit, and a replay of the candidate record a 3% solve left, each
// replay at a target not asked before. Each operation decodes its body, as
// the HTTP handler does. The service is in memory, so the replay's result
// file, which a durable service writes and fsyncs, is not timed.
func BenchmarkSubmit(b *testing.B) {
	for _, name := range []string{"paper5", "ieee14"} {
		input, err := json.Marshal(mustCaseInputText(name, 1, 3))
		if err != nil {
			b.Fatal(err)
		}
		prefix := append([]byte(`{"input":`), input...)
		prefix = append(prefix, `,"targets":[`...)
		body := func(buf []byte, target float64) []byte {
			buf = append(buf[:0], prefix...)
			buf = strconv.AppendFloat(buf, target, 'g', -1, 64)
			return append(buf, "]}"...)
		}
		s, err := New(Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		submitBody := func(b *testing.B, raw []byte) *Job {
			p, err := ParseJobRequest(raw, Limits{})
			if err != nil {
				b.Fatal(err)
			}
			job, err := s.Submit(p, "bench", raw)
			if err != nil {
				b.Fatal(err)
			}
			return job
		}
		<-submitBody(b, body(nil, 3)).Done()

		b.Run(name+"/cache-hit", func(b *testing.B) {
			buf := body(nil, 3)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if submitBody(b, body(buf, 3)).Status().State != JobDone {
					b.Fatal("not a cache hit")
				}
			}
		})
		b.Run(name+"/replay", func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = body(buf, 0.5+float64(i)*1e-7+float64(b.N)*1e-3)
				if !submitBody(b, buf).Status().Replayed {
					b.Fatal("not a replay")
				}
			}
		})
		s.Close()
	}
}
