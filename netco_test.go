package netco_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
	"time"

	"netco"
)

// TestFacadeQuickstart exercises the public API end to end: build a
// combiner with one compromised router, push traffic, assert the
// combiner's guarantee — the README example, as a test.
func TestFacadeQuickstart(t *testing.T) {
	sched := netco.NewScheduler()
	net := netco.NewNetwork(sched)
	link := netco.LinkConfig{Bandwidth: 500e6, Delay: 16 * time.Microsecond, QueueLimit: 100}

	comb := netco.BuildCombiner(net, netco.CombinerSpec{
		K:    3,
		Mode: netco.CombinerCentral,
		Compare: netco.CompareNodeConfig{
			Engine:      netco.CompareConfig{HoldTimeout: 20 * time.Millisecond},
			PerCopyCost: 15 * time.Microsecond,
		},
		EdgeProcDelay: 2 * time.Microsecond,
		RouterLink:    link,
		CompareLink:   netco.LinkConfig{Bandwidth: 2e9, Delay: 16 * time.Microsecond, QueueLimit: 400},
	}, func(i int) *netco.Switch {
		return netco.NewSwitch(sched, netco.SwitchConfig{Name: string(rune('a' + i)), ProcDelay: 2 * time.Microsecond})
	})
	defer comb.Close()

	h1 := netco.NewHost(sched, "h1", netco.HostMAC(1), netco.HostIP(1), netco.HostConfig{EchoResponder: true})
	h2 := netco.NewHost(sched, "h2", netco.HostMAC(2), netco.HostIP(2), netco.HostConfig{EchoResponder: true})
	comb.AttachHost(net, netco.SideLeft, h1, 0, h1.MAC(), link)
	comb.AttachHost(net, netco.SideRight, h2, 0, h2.MAC(), link)

	comb.Routers[1].SetBehavior(netco.Chain{
		&netco.Drop{Match: netco.MatchAll(), Probability: 0.5, Rng: netco.NewRNG(42)},
		&netco.Modify{Match: netco.MatchAll(), Rewrite: []netco.Action{netco.SetVLANVID(666)}},
	})

	sink := netco.NewUDPSink(h2, 9000)
	src := netco.NewUDPSource(h1, 9000, h2.Endpoint(9000), netco.UDPSourceConfig{
		Rate: 20e6, PayloadSize: 1000,
	})
	src.Start()
	sched.RunFor(200 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	if st.Unique != src.Sent || st.Duplicates != 0 || st.Corrupted != 0 {
		t.Fatalf("combiner guarantee violated: unique=%d/%d dups=%d corrupted=%d",
			st.Unique, src.Sent, st.Duplicates, st.Corrupted)
	}
}

// TestFacadeSurface keeps the facade to what its programs use: every
// exported function, constant and variable in netco.go must be named as
// netco.<Name> by some program under examples/. Type aliases are exempt:
// they name what the facade's functions return. The paper's evaluation
// runs through cmd/netco-sweep, so a wrapper no example needs is a second
// path to the same code.
func TestFacadeSurface(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "netco.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	used := map[string]bool{}
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "netco" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	var names []*ast.Ident
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name)
			}
		case *ast.GenDecl:
			if d.Tok == token.CONST || d.Tok == token.VAR {
				for _, spec := range d.Specs {
					names = append(names, spec.(*ast.ValueSpec).Names...)
				}
			}
		}
	}
	for _, name := range names {
		if name.IsExported() && !used[name.Name] {
			t.Errorf("netco.%s: no program under examples/ uses it; delete it or use it in an example", name.Name)
		}
	}
}
