// Command registry manages an enterprise metadata repository held in a
// durable store directory (the same format harmonyd -store-dir serves):
// add schema files, search it (by text or by schema), and cluster it
// into candidate communities of interest.
//
// Usage:
//
//	registry -store-dir DIR add schema.ddl [schema2.xsd ...]
//	registry -store-dir DIR list
//	registry -store-dir DIR search "blood test"
//	registry -store-dir DIR search-schema query.xsd
//	registry -store-dir DIR cluster
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"harmony"
)

func main() {
	storeDir := flag.String("store-dir", "registry-store", "repository store directory")
	k := flag.Int("k", 10, "search results / example terms")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	case "add", "search", "search-schema":
		if len(args) < 2 {
			usage()
		}
	case "list", "cluster":
	default:
		usage()
	}

	st, err := harmony.OpenStore(harmony.StoreOptions{Dir: *storeDir})
	exitOn(err)
	defer func() { exitOn(st.Close()) }()
	reg := st.Registry()

	switch args[0] {
	case "add":
		for _, path := range args[1:] {
			s, err := load(path)
			exitOn(err)
			exitOn(reg.AddSchema(s, "cli"))
			fmt.Printf("added %s (%d elements)\n", s.Name, s.Len())
		}
	case "list":
		for _, e := range reg.Schemas() {
			fmt.Printf("%-24s %-10s %5d elements  %3d roots  steward=%s\n",
				e.Schema.Name, e.Schema.Format, e.Stats.Elements, e.Stats.Roots, e.Steward)
		}
	case "search":
		for _, r := range reg.SearchText(strings.Join(args[1:], " "), *k) {
			fmt.Printf("%-24s %.3f\n", r.Schema, r.Score)
		}
	case "search-schema":
		q, err := load(args[1])
		exitOn(err)
		for _, r := range reg.SearchSchema(q, *k) {
			fmt.Printf("%-24s %.3f\n", r.Schema, r.Score)
		}
	case "cluster":
		entries := reg.Schemas()
		if len(entries) < 2 {
			fmt.Println("need at least two schemata to cluster")
			return
		}
		var schemas []*harmony.Schema
		for _, e := range entries {
			schemas = append(schemas, e.Schema)
		}
		labels, _ := harmony.ProposeCOIs(harmony.QuickDistances(schemas))
		groups := map[int][]string{}
		for i, l := range labels {
			groups[l] = append(groups[l], schemas[i].Name)
		}
		for l := 0; l < len(groups); l++ {
			fmt.Printf("COI %d: %s\n", l+1, strings.Join(groups[l], ", "))
		}
	}
}

func load(path string) (*harmony.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	switch strings.ToLower(filepath.Ext(path)) {
	case ".ddl", ".sql":
		return harmony.ParseDDL(name, string(data))
	case ".xsd", ".xml":
		return harmony.ParseXSD(name, data)
	case ".json":
		return harmony.ParseJSON(data)
	}
	return nil, fmt.Errorf("unknown schema extension %q", filepath.Ext(path))
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: registry [-store-dir DIR] {add FILES... | list | search TEXT | search-schema FILE | cluster}")
	os.Exit(2)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "registry:", err)
		os.Exit(1)
	}
}
