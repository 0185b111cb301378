// Package costcharge exercises the costcharge analyzer: operators
// whose Open/Next do row work must charge ctx.Counter, directly or via
// a helper method reachable from Open/Next.
package costcharge

import (
	"errors"
	"sort"

	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// freeLoop loops over child rows in Next without charging anything.
type freeLoop struct {
	child exec.Operator
	rows  []value.Row
}

func (f *freeLoop) Schema() *schema.Schema { return nil }

func (f *freeLoop) Open(ctx *exec.Context) error { return f.child.Open(ctx) }

func (f *freeLoop) Next(ctx *exec.Context) (value.Row, bool, error) { // want "freeLoop.Next does row work but no method of freeLoop reachable from Open/Next/NextBatch charges ctx.Counter"
	for {
		r, ok, err := f.child.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		if len(r) > 0 {
			return r, true, nil
		}
	}
}

func (f *freeLoop) Close(ctx *exec.Context) error { return f.child.Close(ctx) }

// freeSort sorts in Open without charging: sort/heap calls count as work.
type freeSort struct {
	rows []value.Row
}

func (f *freeSort) Schema() *schema.Schema { return nil }

func (f *freeSort) Open(ctx *exec.Context) error { // want "freeSort.Open does row work but no method of freeSort reachable from Open/Next/NextBatch charges ctx.Counter"
	sort.Slice(f.rows, func(i, j int) bool { return len(f.rows[i]) < len(f.rows[j]) })
	return nil
}

func (f *freeSort) Next(ctx *exec.Context) (value.Row, bool, error) { return nil, false, nil }

func (f *freeSort) Close(ctx *exec.Context) error { return nil }

// charging loops but charges the counter directly.
type charging struct {
	child exec.Operator
}

func (c *charging) Schema() *schema.Schema { return nil }

func (c *charging) Open(ctx *exec.Context) error { return c.child.Open(ctx) }

func (c *charging) Next(ctx *exec.Context) (value.Row, bool, error) {
	for {
		r, ok, err := c.child.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		ctx.Counter.CPUTuples++
		return r, true, nil
	}
}

func (c *charging) Close(ctx *exec.Context) error { return c.child.Close(ctx) }

// viaHelper loops in Next and charges inside a helper Next calls.
type viaHelper struct {
	child exec.Operator
}

func (v *viaHelper) Schema() *schema.Schema { return nil }

func (v *viaHelper) Open(ctx *exec.Context) error { return v.child.Open(ctx) }

func (v *viaHelper) Next(ctx *exec.Context) (value.Row, bool, error) {
	for {
		r, ok, err := v.child.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		v.charge(ctx)
		return r, true, nil
	}
}

func (v *viaHelper) charge(ctx *exec.Context) { ctx.Counter.CPUTuples++ }

func (v *viaHelper) Close(ctx *exec.Context) error { return v.child.Close(ctx) }

// passThrough does no loops and no sorting: exempt.
type passThrough struct {
	child exec.Operator
}

func (p *passThrough) Schema() *schema.Schema { return nil }

func (p *passThrough) Open(ctx *exec.Context) error { return p.child.Open(ctx) }

func (p *passThrough) Next(ctx *exec.Context) (value.Row, bool, error) {
	return p.child.Next(ctx)
}

func (p *passThrough) Close(ctx *exec.Context) error { return p.child.Close(ctx) }

// suppressedOp loops for free, but its shim nature is documented.
type suppressedOp struct {
	child exec.Operator
}

func (s *suppressedOp) Schema() *schema.Schema { return nil }

func (s *suppressedOp) Open(ctx *exec.Context) error { return s.child.Open(ctx) }

//lint:ignore costcharge fixture: measurement shim, charged by the harness
func (s *suppressedOp) Next(ctx *exec.Context) (value.Row, bool, error) {
	for {
		r, ok, err := s.child.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		return r, true, nil
	}
}

func (s *suppressedOp) Close(ctx *exec.Context) error { return s.child.Close(ctx) }

// chargeRowsFree is a plain function: its charge to the worker counter
// is NOT visible to the same-type reachability scan, so absorbOnly
// below is clean purely because Absorb counts as charging.
func chargeRowsFree(w *exec.Context, rows []value.Row) {
	for range rows {
		w.Counter.CPUTuples++
	}
}

// absorbOnly fans work out to a goroutine and merges the worker counter
// back with ctx.Absorb — the exchange-operator pattern. Its own loops
// charge nothing locally; Absorb is the charge.
type absorbOnly struct {
	child exec.Operator
	rows  []value.Row
	pos   int
}

func (a *absorbOnly) Schema() *schema.Schema { return nil }

func (a *absorbOnly) Open(ctx *exec.Context) error {
	rows, err := exec.Drain(ctx, a.child)
	if err != nil {
		return err
	}
	var parts [][]value.Row
	for i, r := range rows {
		if i%2 == 0 {
			parts = append(parts, nil)
		}
		parts[len(parts)-1] = append(parts[len(parts)-1], r)
	}
	w := exec.NewWorkerContext(ctx)
	done := make(chan struct{})
	go func() {
		chargeRowsFree(w, rows)
		close(done)
	}()
	<-done
	ctx.Absorb(w)
	a.rows = rows
	return nil
}

func (a *absorbOnly) Next(ctx *exec.Context) (value.Row, bool, error) {
	if a.pos >= len(a.rows) {
		return nil, false, nil
	}
	r := a.rows[a.pos]
	a.pos++
	return r, true, nil
}

func (a *absorbOnly) Close(ctx *exec.Context) error { return nil }

// goLeak spawns a worker whose private counter is never merged back:
// the cost it charged evaporates with the goroutine.
type goLeak struct {
	child exec.Operator
}

func (g *goLeak) Schema() *schema.Schema { return nil }

func (g *goLeak) Open(ctx *exec.Context) error { // want "goLeak.Open spawns goroutines but no method of goLeak reachable from Open/Next/NextBatch merges worker counters via ctx.Absorb"
	w := exec.NewWorkerContext(ctx)
	done := make(chan struct{})
	go func() {
		w.Counter.CPUTuples++
		close(done)
	}()
	<-done
	return g.child.Open(ctx)
}

func (g *goLeak) Next(ctx *exec.Context) (value.Row, bool, error) {
	return g.child.Next(ctx)
}

func (g *goLeak) Close(ctx *exec.Context) error { return g.child.Close(ctx) }

// batchAmortized is the batch idiom: row work lives only in NextBatch,
// units accumulate in a local and flush to ctx.Counter once per batch.
// Next is a pure pass-through, so without NextBatch in the reachable
// set the type would look like an uncharged free-looper.
type batchAmortized struct {
	child exec.Operator
}

func (b *batchAmortized) Schema() *schema.Schema { return nil }

func (b *batchAmortized) Open(ctx *exec.Context) error { return b.child.Open(ctx) }

func (b *batchAmortized) Next(ctx *exec.Context) (value.Row, bool, error) {
	return b.child.Next(ctx)
}

func (b *batchAmortized) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	var cpu int64
	defer func() { ctx.Counter.CPUTuples += cpu }()
	for len(dst.Rows) < max {
		r, ok, err := b.child.Next(ctx)
		if err != nil || !ok {
			return err
		}
		cpu++
		dst.Rows = append(dst.Rows, r)
	}
	return nil
}

func (b *batchAmortized) Close(ctx *exec.Context) error { return b.child.Close(ctx) }

// batchFree loops over rows only inside NextBatch and never charges:
// the batch path must not be a blind spot for the analyzer.
type batchFree struct {
	child exec.Operator
}

func (b *batchFree) Schema() *schema.Schema { return nil }

func (b *batchFree) Open(ctx *exec.Context) error { return b.child.Open(ctx) }

func (b *batchFree) Next(ctx *exec.Context) (value.Row, bool, error) {
	return b.child.Next(ctx)
}

func (b *batchFree) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error { // want "batchFree.NextBatch does row work but no method of batchFree reachable from Open/Next/NextBatch charges ctx.Counter"
	for len(dst.Rows) < max {
		r, ok, err := b.child.Next(ctx)
		if err != nil || !ok {
			return err
		}
		dst.Rows = append(dst.Rows, r)
	}
	return nil
}

func (b *batchFree) Close(ctx *exec.Context) error { return b.child.Close(ctx) }

// kernelFree delegates its per-row loop to a compiled expression kernel
// (expr.Pred.SelectBatch): the loop lives inside the kernel, not the
// operator body, but the call is row work all the same and must be
// charged from the kernel's evaluated-row count.
type kernelFree struct {
	child exec.Operator
	kern  *expr.Pred
	in    exec.Batch
}

func (k *kernelFree) Schema() *schema.Schema { return nil }

func (k *kernelFree) Open(ctx *exec.Context) error { return k.child.Open(ctx) }

func (k *kernelFree) Next(ctx *exec.Context) (value.Row, bool, error) {
	return k.child.Next(ctx)
}

func (k *kernelFree) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error { // want "kernelFree.NextBatch does row work but no method of kernelFree reachable from Open/Next/NextBatch charges ctx.Counter"
	k.in.Reset()
	if err := exec.FillBatch(ctx, k.child, &k.in, max); err != nil {
		return err
	}
	sel, _, err := k.kern.SelectBatch(k.in.Rows)
	if err != nil {
		return err
	}
	if len(sel) > 0 {
		dst.Rows = append(dst.Rows, k.in.Rows[sel[0]])
	}
	return nil
}

func (k *kernelFree) Close(ctx *exec.Context) error { return k.child.Close(ctx) }

// kernelCharging runs the same kernel but flushes the kernel's
// evaluated-row count to the ledger — the batch kernel idiom.
type kernelCharging struct {
	child exec.Operator
	kern  *expr.Pred
	in    exec.Batch
}

func (k *kernelCharging) Schema() *schema.Schema { return nil }

func (k *kernelCharging) Open(ctx *exec.Context) error { return k.child.Open(ctx) }

func (k *kernelCharging) Next(ctx *exec.Context) (value.Row, bool, error) {
	return k.child.Next(ctx)
}

func (k *kernelCharging) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	k.in.Reset()
	if err := exec.FillBatch(ctx, k.child, &k.in, max); err != nil {
		return err
	}
	sel, evaluated, err := k.kern.SelectBatch(k.in.Rows)
	ctx.Counter.CPUTuples += int64(evaluated)
	if err != nil {
		return err
	}
	if len(sel) > 0 {
		dst.Rows = append(dst.Rows, k.in.Rows[sel[0]])
	}
	return nil
}

func (k *kernelCharging) Close(ctx *exec.Context) error { return k.child.Close(ctx) }

// guardPass is a generic pass-through wrapper: it forwards its child's
// rows, only counting them and aborting past a threshold. No loop, no
// row work — counting is free, so the analyzer must not demand a charge
// (the child it wraps charges for producing the rows).
type guardPass struct {
	child exec.Operator
	est   float64
	n     int64
}

func (g *guardPass) Schema() *schema.Schema { return g.child.Schema() }

func (g *guardPass) Open(ctx *exec.Context) error {
	g.n = 0
	return g.child.Open(ctx)
}

func (g *guardPass) Next(ctx *exec.Context) (value.Row, bool, error) {
	r, ok, err := g.child.Next(ctx)
	if ok {
		g.n++
		if float64(g.n) >= g.est*10 {
			return nil, false, errThreshold
		}
	}
	return r, ok, err
}

func (g *guardPass) Close(ctx *exec.Context) error { return g.child.Close(ctx) }

var errThreshold = errors.New("threshold exceeded")

// guardFilter is the broken variant of the pass-through wrapper: it does
// real row work — draining and discarding the remainder of its child in
// a loop — without charging the discarded rows to the ledger, so the
// drained rows' counter deltas would be lost.
type guardFilter struct {
	child exec.Operator
	est   float64
	n     int64
}

func (g *guardFilter) Schema() *schema.Schema { return g.child.Schema() }

func (g *guardFilter) Open(ctx *exec.Context) error { return g.child.Open(ctx) }

func (g *guardFilter) Next(ctx *exec.Context) (value.Row, bool, error) { // want "guardFilter.Next does row work but no method of guardFilter reachable from Open/Next/NextBatch charges ctx.Counter"
	r, ok, err := g.child.Next(ctx)
	if ok {
		g.n++
		if float64(g.n) >= g.est*10 {
			for {
				_, more, derr := g.child.Next(ctx)
				if derr != nil || !more {
					break
				}
			}
			return nil, false, errThreshold
		}
	}
	return r, ok, err
}

func (g *guardFilter) Close(ctx *exec.Context) error { return g.child.Close(ctx) }
