package pool

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestMapOrderAndValues(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		got, errs := Map(context.Background(), workers, 10, func(i int) (int, error) {
			return i * i, nil
		})
		for i := 0; i < 10; i++ {
			if errs[i] != nil || got[i] != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, err %v", workers, i, got[i], errs[i])
			}
		}
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	got, errs := Map(context.Background(), 4, 3, func(i int) (int, error) {
		if i == 1 {
			panic("boom")
		}
		return i, nil
	})
	if errs[0] != nil || errs[2] != nil || got[2] != 2 {
		t.Fatalf("healthy slots disturbed: %v %v", got, errs)
	}
	var pe *PanicError
	if !errors.As(errs[1], &pe) || !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("panic not wrapped: %v", errs[1])
	}
}

func TestMapContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := Map(ctx, 2, 4, func(i int) (int, error) {
		t.Fatal("fn invoked after cancellation")
		return 0, nil
	})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}

	// Cancelled mid-run: the task that cancels still finishes, the ones
	// not yet started fail without being invoked.
	ctx, cancel = context.WithCancel(context.Background())
	invoked := 0 // one worker: no race
	got, errs := Map(ctx, 1, 8, func(i int) (int, error) {
		invoked++
		if i == 2 {
			cancel()
		}
		return i, nil
	})
	for i := range errs {
		if i <= 2 && (errs[i] != nil || got[i] != i) || i > 2 && !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("mid-run cancel: slot %d = %d, %v", i, got[i], errs[i])
		}
	}
	if invoked != 3 {
		t.Fatalf("mid-run cancel invoked %d tasks, want 3", invoked)
	}
}

func TestMapZeroItems(t *testing.T) {
	got, errs := Map(context.Background(), 4, 0, func(i int) (int, error) { return i, nil })
	if len(got) != 0 || len(errs) != 0 {
		t.Fatalf("zero-item map returned %v %v", got, errs)
	}
}

// TestMapNegativeWorkers pins the workers<=0 contract: any
// non-positive count falls back to GOMAXPROCS rather than deadlocking
// with zero workers or panicking on a negative wg.Add.
func TestMapNegativeWorkers(t *testing.T) {
	for _, workers := range []int{-1, -100} {
		got, errs := Map(context.Background(), workers, 7, func(i int) (int, error) {
			return i + 1, nil
		})
		for i := 0; i < 7; i++ {
			if errs[i] != nil || got[i] != i+1 {
				t.Fatalf("workers=%d: result[%d] = %d, err %v", workers, i, got[i], errs[i])
			}
		}
	}
}

// TestMapPanicOrdering scatters panics through a batch wider than the
// worker count: every panicking index gets its own *PanicError (with
// the stack captured but kept out of Error(), whose text must stay
// address-free for reproducible artifacts), and every healthy index
// keeps its in-order result.
func TestMapPanicOrdering(t *testing.T) {
	const n = 64
	got, errs := Map(context.Background(), 4, n, func(i int) (int, error) {
		if i%3 == 0 {
			panic(i)
		}
		return i * 10, nil
	})
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			var pe *PanicError
			if !errors.As(errs[i], &pe) {
				t.Fatalf("errs[%d] = %v, want *PanicError", i, errs[i])
			}
			if pe.Value != i {
				t.Fatalf("errs[%d] carries panic value %v, want %d (slot confusion)", i, pe.Value, i)
			}
			if len(pe.Stack) == 0 {
				t.Fatalf("errs[%d]: stack not captured", i)
			}
			if strings.Contains(pe.Error(), "0x") {
				t.Fatalf("errs[%d]: Error() leaks addresses: %q", i, pe.Error())
			}
		} else if errs[i] != nil || got[i] != i*10 {
			t.Fatalf("healthy slot %d disturbed: %d, %v", i, got[i], errs[i])
		}
	}
}

// TestMapConcurrent drives many Maps from many goroutines at once —
// the race-detector leg for the shared fan-out used by parallel settle
// and topology builds (go test -race ./internal/pool/).
func TestMapConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, errs := Map(context.Background(), 4, 100, func(i int) (int, error) {
				return g*1000 + i, nil
			})
			for i := 0; i < 100; i++ {
				if errs[i] != nil || got[i] != g*1000+i {
					t.Errorf("goroutine %d: result[%d] = %d, err %v", g, i, got[i], errs[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
