// Package app models the tightly-coupled iterative application of
// Section III.A: a sequence of iterations, each executing m identical,
// communicating tasks followed by a global synchronization. Before
// computing, every enrolled worker must hold the application program
// (Tprog slots of master communication, needed once per worker unless it
// goes DOWN) and one data message per assigned task (Tdata slots each,
// needed anew every iteration).
package app

import "fmt"

// Application describes one tightly-coupled iterative application in
// time-slot units. Tprog = Vprog/bw and Tdata = Vdata/bw are assumed to be
// integral numbers of slots, as in the paper.
type Application struct {
	// Tasks is m, the number of identical coupled tasks per iteration.
	Tasks int
	// Tprog is the number of communication slots to download the program.
	Tprog int
	// Tdata is the number of communication slots per task-data message.
	Tdata int
	// Iterations is the number of iterations to complete (the paper's
	// experiments fix 10 and measure the makespan).
	Iterations int
}

// Validate checks the application parameters. Tprog and Tdata may be zero
// (the off-line complexity section uses communication-free instances) but
// not negative.
func (a Application) Validate() error {
	if a.Tasks <= 0 {
		return fmt.Errorf("app: %d tasks, want positive", a.Tasks)
	}
	if a.Tprog < 0 || a.Tdata < 0 {
		return fmt.Errorf("app: negative communication times (Tprog=%d, Tdata=%d)", a.Tprog, a.Tdata)
	}
	if a.Iterations <= 0 {
		return fmt.Errorf("app: %d iterations, want positive", a.Iterations)
	}
	return nil
}

// Assignment maps tasks onto processors: Assignment[q] = x_q is the number
// of tasks given to processor q. Its length is the platform size.
type Assignment []int

// Clone returns a copy of the assignment.
func (as Assignment) Clone() Assignment {
	c := make(Assignment, len(as))
	copy(c, as)
	return c
}

// TaskCount returns Σ x_q.
func (as Assignment) TaskCount() int {
	total := 0
	for _, x := range as {
		total += x
	}
	return total
}

// Enrolled returns the indices q with x_q > 0, in increasing order.
func (as Assignment) Enrolled() []int {
	var out []int
	for q, x := range as {
		if x > 0 {
			out = append(out, q)
		}
	}
	return out
}

// Workload returns W = max_q x_q·w_q, the number of simultaneous all-UP
// compute slots the configuration needs to finish an iteration: the tasks
// progress in locked steps at the pace of the most loaded worker.
// speeds[q] is w_q. An empty assignment has workload 0.
func (as Assignment) Workload(speeds []int) int {
	if len(as) != len(speeds) {
		panic(fmt.Sprintf("app: assignment size %d != speeds size %d", len(as), len(speeds)))
	}
	w := 0
	for q, x := range as {
		if x > 0 && x*speeds[q] > w {
			w = x * speeds[q]
		}
	}
	return w
}

// Equal reports whether two assignments give every processor the same
// number of tasks. Two views of one slice are equal at once: the engine
// compares its configuration with itself whenever a heuristic keeps it.
func (as Assignment) Equal(other Assignment) bool {
	if len(as) != len(other) {
		return false
	}
	if len(as) == 0 || &as[0] == &other[0] {
		return true
	}
	for q := range as {
		if as[q] != other[q] {
			return false
		}
	}
	return true
}

// Validate checks that the assignment carries exactly m tasks and respects
// the capacity vector.
func (as Assignment) Validate(m int, capacities []int) error {
	if len(as) != len(capacities) {
		return fmt.Errorf("app: assignment size %d != platform size %d", len(as), len(capacities))
	}
	total := 0
	for q, x := range as {
		if x < 0 {
			return fmt.Errorf("app: negative task count on processor %d", q)
		}
		if x > capacities[q] {
			return fmt.Errorf("app: processor %d assigned %d tasks, capacity %d", q, x, capacities[q])
		}
		total += x
	}
	if total != m {
		return fmt.Errorf("app: assignment carries %d tasks, want %d", total, m)
	}
	return nil
}

func (as Assignment) String() string {
	return fmt.Sprintf("Assignment%v", []int(as))
}
