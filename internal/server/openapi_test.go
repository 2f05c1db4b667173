package server

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestOpenAPIMatchesRoutes is the API contract check: every route the
// server registers must be documented in docs/openapi.yaml, and every path
// the spec documents must be registered — in both directions, by method.
// The spec is deliberately simple enough to walk with two regexes (path
// keys at two-space indent, method keys at four), so no YAML dependency is
// needed.
func TestOpenAPIMatchesRoutes(t *testing.T) {
	t.Parallel()
	spec := readSpecRoutes(t, filepath.Join("..", "..", "docs", "openapi.yaml"))

	s := newTestServer(t, 1)
	served := map[string]bool{}
	for _, r := range s.Routes() {
		served[r[0]+" "+r[1]] = true
	}
	if len(served) == 0 {
		t.Fatal("Server.Routes() is empty")
	}

	for key := range served {
		if !spec[key] {
			t.Errorf("route %q is served but missing from docs/openapi.yaml", key)
		}
	}
	for key := range spec {
		if !served[key] {
			t.Errorf("path %q is documented in docs/openapi.yaml but not served", key)
		}
	}
	if t.Failed() {
		var a, b []string
		for k := range served {
			a = append(a, k)
		}
		for k := range spec {
			b = append(b, k)
		}
		sort.Strings(a)
		sort.Strings(b)
		t.Logf("served:\n  %s", strings.Join(a, "\n  "))
		t.Logf("spec:\n  %s", strings.Join(b, "\n  "))
	}
}

// readSpecRoutes extracts "METHOD /v1/path" keys from the OpenAPI file.
func readSpecRoutes(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening spec: %v", err)
	}
	defer f.Close()

	pathRE := regexp.MustCompile(`^  (/v1[^\s:]*):\s*$`)
	methodRE := regexp.MustCompile(`^    (get|post|put|delete|patch):\s*$`)
	routes := map[string]bool{}
	current := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if m := pathRE.FindStringSubmatch(line); m != nil {
			current = m[1]
			continue
		}
		if m := methodRE.FindStringSubmatch(line); m != nil {
			if current == "" {
				t.Fatalf("method %q before any path in spec", m[1])
			}
			key := strings.ToUpper(m[1]) + " " + current
			if routes[key] {
				t.Fatalf("duplicate spec entry %q", key)
			}
			routes[key] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading spec: %v", err)
	}
	if len(routes) == 0 {
		t.Fatal("no /v1 routes found in docs/openapi.yaml")
	}
	return routes
}
