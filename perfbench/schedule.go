package main

import (
	"math/rand/v2"
	"slices"
	"time"
)

// The serve-mixed traffic is drawn from the workload seed alone, with the
// standard library's PCG generator, so a run of the same code and seed
// sends exactly the same requests and a change to the repository's own
// RNG cannot change the benchmark's inputs.

type reqKind int

const (
	kindSolve reqKind = iota
	kindEvaluate
	kindMutate
)

func (k reqKind) String() string {
	switch k {
	case kindSolve:
		return "solve"
	case kindEvaluate:
		return "evaluate"
	}
	return "mutate"
}

// Request mix of serve-mixed, in percent; the rest are mutates. Each
// mutate makes the next solve of every α key a miss, so with 5 keys a 2%
// mutate share makes up to 10% of requests re-solves, and with the
// evaluates at most a fifth of all requests leave the cache-hit path: p50
// stays well inside the hits.
const (
	solvePct    = 88
	evaluatePct = 10
)

// request is one scheduled serve-mixed request.
type request struct {
	At    time.Duration // send time, from the start of the timed phase
	Kind  reqKind
	Alpha int // α-grid index of a solve or evaluate
	// Mutation indexes the mutation list (mutates only).
	Mutation int
}

// arc is a directed graph arc u→v.
type arc struct{ U, V int32 }

// mutation is one /v1/mutate delta: remove an arc that exists, or re-add
// one that an earlier mutation removed.
type mutation struct {
	Arc arc
	Add bool
}

func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// makeSchedule draws n requests arriving over span as a Poisson process
// conditioned on its count: n uniform send times, sorted. The mix is exact
// (shuffled, in the proportions above), so the offered load and the
// number of mutates are the same for every seed; how many re-solves the
// mutates cause depends on where they fall. Solves and evaluates are spread
// uniformly over alphas α keys; mutates are numbered in order, so the
// i-th mutate applies mutation i.
func makeSchedule(seed uint64, n int, span time.Duration, alphas int) []request {
	rng := newRNG(seed, 1)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(span))
	}
	slices.Sort(at)
	kinds := make([]reqKind, n)
	solves, evals := n*solvePct/100, n*evaluatePct/100
	for i := range kinds {
		switch {
		case i < solves:
			kinds[i] = kindSolve
		case i < solves+evals:
			kinds[i] = kindEvaluate
		default:
			kinds[i] = kindMutate
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	out := make([]request, n)
	mutates := 0
	for i := range out {
		out[i] = request{At: at[i], Kind: kinds[i]}
		if kinds[i] == kindMutate {
			out[i].Mutation = mutates
			mutates++
		} else {
			out[i].Alpha = rng.IntN(alphas)
		}
	}
	return out
}

// countMutates returns how many requests of the schedule are mutates.
func countMutates(sched []request) int {
	n := 0
	for _, r := range sched {
		if r.Kind == kindMutate {
			n++
		}
	}
	return n
}

// makeMutations draws n mutations that are valid in sequence against a
// graph holding exactly arcs: each either removes an arc still present or,
// with probability 1/2 when one exists, re-adds an arc removed earlier.
func makeMutations(seed uint64, arcs []arc, n int) []mutation {
	rng := newRNG(seed, 2)
	removed := map[int]bool{}
	var gone []int // indexes of removed arcs, in removal order
	out := make([]mutation, 0, n)
	for len(out) < n {
		if len(gone) > 0 && rng.IntN(2) == 0 {
			j := rng.IntN(len(gone))
			i := gone[j]
			gone[j] = gone[len(gone)-1]
			gone = gone[:len(gone)-1]
			delete(removed, i)
			out = append(out, mutation{Arc: arcs[i], Add: true})
			continue
		}
		if len(removed) == len(arcs) {
			continue
		}
		i := rng.IntN(len(arcs))
		for removed[i] {
			i = rng.IntN(len(arcs))
		}
		removed[i] = true
		gone = append(gone, i)
		out = append(out, mutation{Arc: arcs[i]})
	}
	return out
}
