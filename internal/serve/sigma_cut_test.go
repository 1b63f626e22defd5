package serve

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/incr"
	"repro/internal/rdf"
	"repro/internal/rules"
)

// writeAfterRead is an engine on which a write lands right after every
// aggregate read returns — the interleaving a concurrent writer can
// produce between any two engine calls a handler makes.
type writeAfterRead struct {
	incr.Engine
	write func()
}

func (e writeAfterRead) Stats() incr.Stats {
	defer e.write()
	return e.Engine.Stats()
}

func (e writeAfterRead) Sigma(fn rules.CountsFunc) rules.Ratio {
	defer e.write()
	return e.Engine.Sigma(fn)
}

func (e writeAfterRead) SigmaPairs(fn rules.PairCountsFunc) (rules.Ratio, bool) {
	defer e.write()
	return e.Engine.SigmaPairs(fn)
}

func (e writeAfterRead) SigmaStats(fn rules.Func) (rules.Ratio, incr.Stats, bool) {
	defer e.write()
	return e.Engine.SigmaStats(fn)
}

// A /sigma miss must carry stats.epoch equal to the epoch its ratio was
// evaluated at, however writes interleave with the handler's engine
// reads — and so must the body it leaves in the cache.
func TestSigmaBodyIsOneEpoch(t *testing.T) {
	const p, q = "http://ex/p", "http://ex/q"
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := incr.NewSharded(shards, incr.Options{})
			// ratioAt[fn][epoch] is σ at every epoch the engine has been at.
			// Each write adds a subject with p alone, moving σCov and
			// σDep[p,q] alike.
			fns := map[string]func() string{
				"cov": func() string { return d.SigmaCov().String() },
				"dep[" + p + "," + q + "]": func() string {
					r, _ := d.SigmaPairs(rules.DepFunc(p, q).(rules.PairCountsFunc))
					return r.String()
				},
			}
			ratioAt := map[string]map[uint64]string{}
			n := 0
			write := func() {
				s := fmt.Sprintf("http://ex/s%d", n)
				add := []rdf.Triple{{Subject: s, Predicate: p, Object: rdf.NewURI("http://ex/o")}}
				if n == 0 {
					add = append(add, rdf.Triple{Subject: s, Predicate: q, Object: rdf.NewURI("http://ex/o")})
				}
				n++
				d.Apply(add, nil)
				for fn, eval := range fns {
					if ratioAt[fn] == nil {
						ratioAt[fn] = map[uint64]string{}
					}
					ratioAt[fn][d.Epoch()] = eval()
				}
			}
			write()
			ts := newTestServerWith(t, writeAfterRead{d, write}, false)
			for i := 0; i < 4; i++ {
				for fn := range fns {
					var resp struct {
						Ratio string     `json:"ratio"`
						Stats incr.Stats `json:"stats"`
					}
					if code := getJSON(t, ts.URL+"/sigma?fn="+fn, &resp); code != http.StatusOK {
						t.Fatalf("GET /sigma?fn=%s = %d", fn, code)
					}
					if want := ratioAt[fn][resp.Stats.Epoch]; resp.Ratio != want {
						t.Fatalf("fn=%s: body has stats.epoch %d with ratio %q, but σ at that epoch is %q",
							fn, resp.Stats.Epoch, resp.Ratio, want)
					}
				}
			}
		})
	}
}
