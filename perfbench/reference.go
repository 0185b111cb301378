package main

import (
	"fmt"
	"math"

	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// The reference answers every statement of the streams from plain Go
// copies of the generated rows, without the engine's parser, optimizer
// or executor, and keeps those copies current as write-mix inserts
// rows. A statement's answer is compared as a multiset hash.

type empRow struct {
	eid, did int64
	sal      float64
	age      int64
}

type reference struct {
	emps   []empRow
	byDid  [][]int32 // indices into emps per department
	budget []int64   // per department
	salSum []float64 // per department, for AVG(sal)
	salCnt []int64
}

// newReference copies the generated Emp and Dept rows.
func newReference(emp, dept *storage.Table) (*reference, error) {
	r := &reference{
		budget: make([]int64, dept.NumRows()),
		byDid:  make([][]int32, dept.NumRows()),
		salSum: make([]float64, dept.NumRows()),
		salCnt: make([]int64, dept.NumRows()),
	}
	for _, row := range dept.Rows() {
		did := row[0].Int()
		if did < 0 || did >= int64(len(r.budget)) {
			return nil, fmt.Errorf("reference: Dept did %d outside 0..%d", did, len(r.budget)-1)
		}
		r.budget[did] = row[1].Int()
	}
	rows := make([]empRow, emp.NumRows())
	for i, row := range emp.Rows() {
		rows[i] = empRow{eid: row[0].Int(), did: row[1].Int(), sal: row[2].Float(), age: row[3].Int()}
	}
	return r, r.insert(rows)
}

func (r *reference) insert(rows []empRow) error {
	for _, e := range rows {
		if e.did < 0 || e.did >= int64(len(r.budget)) {
			return fmt.Errorf("reference: Emp did %d has no department", e.did)
		}
		r.byDid[e.did] = append(r.byDid[e.did], int32(len(r.emps)))
		r.emps = append(r.emps, e)
		r.salSum[e.did] += e.sal
		r.salCnt[e.did]++
	}
	return nil
}

// avg is DepAvgSal.avgsal. Salaries are whole numbers, so the sum is
// exact in any order and the quotient matches the engine's bit for bit.
func (r *reference) avg(did int64) float64 { return r.salSum[did] / float64(r.salCnt[did]) }

// eval returns the multiset hash of q's answer.
func (r *reference) eval(q *refQuery) resultHash {
	var h resultHash
	visit := func(e *empRow) {
		if e.age >= q.ageLT || e.age <= q.ageGT || r.budget[e.did] <= q.budgetGT {
			return
		}
		if q.salGTAvg && e.sal <= r.avg(e.did) {
			return
		}
		var rh rowHash
		for _, c := range q.cols {
			switch c {
			case cEid:
				rh.int(e.eid)
			case cDid, cVDid:
				rh.int(e.did)
			case cSal:
				rh.float(e.sal)
			case cAge:
				rh.int(e.age)
			case cBudget:
				rh.int(r.budget[e.did])
			case cAvg:
				rh.float(r.avg(e.did))
			}
		}
		h.add(rh)
	}
	switch {
	case q.groupBy:
		for did, idx := range r.byDid {
			var n int64
			var sum float64
			for _, i := range idx {
				e := &r.emps[i]
				if e.age < q.ageLT && e.age > q.ageGT && r.budget[e.did] > q.budgetGT {
					n++
					sum += e.sal
				}
			}
			if n > 0 {
				var rh rowHash
				rh.int(int64(did))
				rh.int(n)
				rh.float(sum)
				h.add(rh)
			}
		}
	case q.did >= 0:
		if q.did < int64(len(r.byDid)) {
			for _, i := range r.byDid[q.did] {
				visit(&r.emps[i])
			}
		}
	default:
		for i := range r.emps {
			visit(&r.emps[i])
		}
	}
	return h
}

// resultHash identifies a multiset of rows: the row count and the sum
// of the rows' hashes, so row order does not matter.
type resultHash struct {
	rows int64
	sum  uint64
}

func (h *resultHash) add(r rowHash) {
	h.rows++
	h.sum += mix(r.h)
}

// hashRows hashes an engine result by value kind and bits.
func hashRows(rows []value.Row) resultHash {
	var h resultHash
	for _, row := range rows {
		var rh rowHash
		for _, v := range row {
			switch v.Kind() {
			case value.KindInt:
				rh.int(v.Int())
			case value.KindFloat:
				rh.float(v.Float())
			default:
				// The templates produce only ints and floats; anything
				// else cannot match the reference.
				rh.word(0xbad, uint64(v.Kind()))
			}
		}
		h.add(rh)
	}
	return h
}

// rowHash hashes one row's values in column order.
type rowHash struct{ h uint64 }

func (r *rowHash) word(tag, bits uint64) { r.h = mix(mix(r.h+tag) ^ bits) }
func (r *rowHash) int(v int64)           { r.word(1, uint64(v)) }
func (r *rowHash) float(v float64)       { r.word(2, math.Float64bits(v)) }

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
