package shell

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// BenchmarkEngineThroughput measures end-to-end events per operation for
// one spontaneous update flowing through notify + propagation + write on
// two shells over the in-process bus (the full Figure 2 path minus real
// sockets).  Each b.N iteration is one application update propagated.
func BenchmarkEngineThroughput(b *testing.B) {
	clk := vclock.NewVirtual(vclock.Epoch)
	tr := trace.New(nil)
	spec, err := rule.ParseSpecString(`
site A
site B
private X @ A
private Y @ B
rule prop: Ws(X, b) ->5s WR(Y, b)
`)
	if err != nil {
		b.Fatal(err)
	}
	bus := transport.NewBus(clk, 0)
	sa := New("sa", spec, Options{Clock: clk, Trace: tr})
	sa.AddSite("A", nil)
	sa.Route("B", "sb")
	sb := New("sb", spec, Options{Clock: clk, Trace: tr})
	sb.AddSite("B", nil)
	sb.Route("A", "sa")
	if err := sa.Attach(bus); err != nil {
		b.Fatal(err)
	}
	if err := sb.Attach(bus); err != nil {
		b.Fatal(err)
	}
	if err := sa.Start(); err != nil {
		b.Fatal(err)
	}
	if err := sb.Start(); err != nil {
		b.Fatal(err)
	}
	defer sa.Stop()
	defer sb.Stop()
	x := itemOf("X")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa.Spontaneous(x, valueOf(int64(i)), valueOf(int64(i+1)))
		clk.Advance(time.Millisecond)
	}
	b.StopTimer()
	clk.Advance(time.Second)
	if v, ok := sb.ReadAux(itemOf("Y")); !ok || v.Int() != int64(b.N) {
		b.Fatalf("Y = %s, %v after %d updates", v, ok, b.N)
	}
	b.ReportMetric(float64(tr.Len())/float64(b.N), "events/op")
}

// BenchmarkRuleDispatch measures matching one spontaneous event against a
// shell owning many rules: the dispatch index touches only the (op, item)
// bucket, so its cost is flat in rule count.
func BenchmarkRuleDispatch(b *testing.B) {
	for _, rules := range []int{1, 64} {
		var src strings.Builder
		src.WriteString("site S\n")
		for r := 0; r < rules; r++ {
			fmt.Fprintf(&src, "private X%d @ S\nprivate Y%d @ S\n", r, r)
			fmt.Fprintf(&src, "rule r%d: Ws(X%d, b) ->5s W(Y%d, b)\n", r, r, r)
		}
		spec, err := rule.ParseSpecString(src.String())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			clk := vclock.NewVirtual(vclock.Epoch)
			s := New("s", spec, Options{Clock: clk, Trace: trace.New(nil)})
			s.AddSite("S", nil)
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
			defer s.Stop()
			x := itemOf("X0")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Spontaneous(x, valueOf(int64(i)), valueOf(int64(i+1)))
				clk.Advance(time.Millisecond)
			}
		})
	}
}

// BenchmarkSpontaneousCascade prices one Spontaneous update and its
// three-event cascade on one serial shell on a virtual clock: the rule
// shape of cmperf's engine_rules workload on one family, so a CPU profile
// of it attributes that workload's time without the benchmark harness.
func BenchmarkSpontaneousCascade(b *testing.B) {
	clk := vclock.NewVirtual(vclock.Epoch)
	s := cascadeShell(b, "s", "S", cascadeSpec(b, false), clk)
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	defer s.Stop()
	x := itemOf("X")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Spontaneous(x, valueOf(int64(i)), valueOf(int64(i+1)))
		clk.Advance(time.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Trace().Len())/float64(b.N), "events/op")
}

// BenchmarkTraceCheck measures validating a recorded execution.
func BenchmarkTraceCheck(b *testing.B) {
	clk := vclock.NewVirtual(vclock.Epoch)
	tr := trace.New(nil)
	spec, err := rule.ParseSpecString(`
site A
private X @ A
private Y @ A
rule prop: Ws(X, b) ->5s W(Y, b)
`)
	if err != nil {
		b.Fatal(err)
	}
	s := New("s", spec, Options{Clock: clk, Trace: tr})
	s.AddSite("A", nil)
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	defer s.Stop()
	for i := 0; i < 500; i++ {
		s.Spontaneous(itemOf("X"), valueOf(int64(i)), valueOf(int64(i+1)))
		clk.Advance(time.Millisecond)
	}
	clk.Advance(time.Minute)
	rules := append(spec.Rules, s.ImplicitRules()...)
	checker := trace.NewChecker(rules)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := checker.Check(tr); len(vs) != 0 {
			b.Fatalf("violations: %v", vs)
		}
	}
	b.ReportMetric(float64(tr.Len()), "events/trace")
}

func itemOf(base string) data.ItemName { return data.Item(base) }
func valueOf(i int64) data.Value       { return data.NewInt(i) }
