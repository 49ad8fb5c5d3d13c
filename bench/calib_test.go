package main

import (
	"math"
	"testing"
)

// The host factor is 1 on the reference box and scales with the passes;
// one disturbed pass does not move it.
func TestHostFactor(t *testing.T) {
	scaled := func(f float64) calibPass { return calibPass{f * calibRef[0], f * calibRef[1], f * calibRef[2]} }
	ref := []calibPass{scaled(1), scaled(1), scaled(1)}
	if f := hostFactor(ref); math.Abs(f-1) > 1e-12 {
		t.Errorf("factor of reference passes is %g, want 1", f)
	}
	if f := hostFactor([]calibPass{scaled(2), scaled(2), scaled(9)}); math.Abs(f-2) > 1e-12 {
		t.Errorf("factor of passes twice as slow, one disturbed, is %g, want 2", f)
	}
}

func TestCalibratePassTimesEveryPart(t *testing.T) {
	p, err := calibrate()
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range p {
		if s <= 0 {
			t.Errorf("part %d took %g s", k, s)
		}
	}
}
