package main

import (
	"bufio"
	"embed"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

//go:embed workloads/*.properties
var workloadFiles embed.FS

// Workload is one declared workload: the key=value pairs of its
// properties file, read through typed getters.
type Workload struct {
	Name  string
	props map[string]string
}

// loadWorkload reads workloads/<name>.properties.
func loadWorkload(name string) (*Workload, error) {
	data, err := workloadFiles.ReadFile("workloads/" + name + ".properties")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	return parseWorkload(name, string(data))
}

// workloadNames lists the declared workloads.
func workloadNames() []string {
	ents, _ := workloadFiles.ReadDir("workloads")
	var names []string
	for _, e := range ents {
		names = append(names, strings.TrimSuffix(e.Name(), ".properties"))
	}
	sort.Strings(names)
	return names
}

// parseWorkload parses properties text: one key = value per line, #
// comments and blank lines ignored. "extends = <workload>" first loads
// that workload's properties, which the file's own keys then override.
func parseWorkload(name, text string) (*Workload, error) {
	w := &Workload{Name: name, props: make(map[string]string)}
	sc := bufio.NewScanner(strings.NewReader(text))
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("%s.properties:%d: want key = value", name, ln)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if k == "extends" {
			base, err := loadWorkload(v)
			if err != nil {
				return nil, fmt.Errorf("%s.properties:%d: %w", name, ln, err)
			}
			for bk, bv := range base.props {
				if bk != "why" {
					w.props[bk] = bv
				}
			}
		}
		w.props[k] = v
	}
	return w, sc.Err()
}

// Str returns a property, or def when unset.
func (w *Workload) Str(key, def string) string {
	if v, ok := w.props[key]; ok {
		return v
	}
	return def
}

// Int returns an integer property, or def when unset.
func (w *Workload) Int(key string, def int) int {
	v, ok := w.props[key]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		panic(fmt.Sprintf("workload %s: %s = %q: not an integer", w.Name, key, v))
	}
	return n
}

// Float returns a float property, or def when unset.
func (w *Workload) Float(key string, def float64) float64 {
	v, ok := w.props[key]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		panic(fmt.Sprintf("workload %s: %s = %q: not a number", w.Name, key, v))
	}
	return f
}

// Bool returns a boolean property (false when unset).
func (w *Workload) Bool(key string) bool { return w.props[key] == "true" }

// Prefixed returns the values of every key starting with prefix, in
// key order.
func (w *Workload) Prefixed(prefix string) []string {
	var keys []string
	for k := range w.props {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = w.props[k]
	}
	return out
}

// Keys returns every declared key, sorted (for the config block).
func (w *Workload) Keys() []string {
	keys := make([]string, 0, len(w.props))
	for k := range w.props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
