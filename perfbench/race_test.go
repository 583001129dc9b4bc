//go:build race

package main

// The race detector slows every workload several times over; the smoke
// runs longer under it so each percentile still has ten samples beyond.
const smokeSeconds = 15
