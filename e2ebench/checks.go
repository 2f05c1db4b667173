package main

import (
	"fmt"
	"sort"
	"strings"
)

// checker compares the program's answers with expected answers, outside the
// timed region. Each comparison is one answer under a named check. The
// self-test sets wrong to a check's name: the want helpers then hand that
// check a deliberately wrong expected answer, proving the check can fail.
type checker struct {
	wrong   string
	checked map[string]int
	failed  map[string]int
	first   map[string]string // first mismatch of each check
}

func newChecker(wrong string) *checker {
	return &checker{wrong: wrong, checked: map[string]int{}, failed: map[string]int{}, first: map[string]string{}}
}

// check records one compared answer.
func (c *checker) check(name string, ok bool, format string, args ...any) {
	c.checked[name]++
	if !ok {
		c.failed[name]++
		if _, seen := c.first[name]; !seen {
			c.first[name] = fmt.Sprintf(format, args...)
		}
	}
}

// wantFloat, wantInt, wantInts and wantBytes return the expected answer of
// check name, or a wrong one when the self-test asks for it.
func (c *checker) wantFloat(name string, v float64) float64 {
	if c.wrong == name {
		return v + 1
	}
	return v
}

func (c *checker) wantInt(name string, v int) int {
	if c.wrong == name {
		return v + 1
	}
	return v
}

func (c *checker) wantInts(name string, v []int) []int {
	if c.wrong == name {
		return append(append([]int(nil), v...), -1)
	}
	return v
}

func (c *checker) wantBytes(name string, v []byte) []byte {
	if c.wrong == name {
		return append([]byte{0}, v...)
	}
	return v
}

// sameSet compares two RNN sets; nil and empty are the same set.
func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mismatches is the number of answers that failed a check.
func (c *checker) mismatches() int { return sumCounts(c.failed) }

func sumCounts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// summary lists every check with its answer and failure counts.
func (c *checker) summary() string {
	names := make([]string, 0, len(c.checked))
	for n := range c.checked {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "  check %-20s %5d answers compared, %d failed", n, c.checked[n], c.failed[n])
		if msg, ok := c.first[n]; ok {
			fmt.Fprintf(&b, " (first: %s)", msg)
		}
	}
	return b.String()
}
