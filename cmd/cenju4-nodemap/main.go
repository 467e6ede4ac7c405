// Command cenju4-nodemap inspects the Cenju-4 directory node-map
// encodings: given a list of sharer node numbers, it shows the pointer
// or bit-pattern representation, the decoded (represented) set, and how
// the other schemes of Figure 4 would represent the same sharers.
//
// Usage:
//
//	cenju4-nodemap [-nodes 1024] 0 4 5 32 164
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"cenju4/internal/directory"
	"cenju4/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cenju4-nodemap: ")
	total := flag.Int("nodes", 1024, "machine size")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: cenju4-nodemap [-nodes n] sharer-node-numbers...")
		os.Exit(2)
	}

	sharers, err := parseSharers(flag.Args(), *total)
	if err != nil {
		log.Fatal(err)
	}

	var e directory.Entry
	for _, n := range sharers {
		e.MapAdd(n)
	}
	form := "pointer (precise)"
	if e.Dest().IsPattern() {
		form = "bit-pattern"
	}
	members := e.Dest().Members(nil, *total)
	fmt.Printf("sharers:      %v\n", sharers)
	fmt.Printf("entry:        %v\n", e)
	fmt.Printf("structure:    %s\n", form)
	fmt.Printf("represented:  %d nodes: %v\n", len(members), members)
	fmt.Printf("overshoot:    %.2fx\n\n", float64(len(members))/float64(len(sharers)))

	fmt.Println("comparison with the other Figure 4 schemes:")
	for _, s := range directory.Schemes() {
		m := s.New(*total)
		for _, n := range sharers {
			m.Add(n)
		}
		fmt.Printf("  %-28s %4d nodes represented (%.2fx)\n",
			s.Name, m.Count(), float64(m.Count())/float64(len(sharers)))
	}
}

// parseSharers turns the positional arguments into node IDs, rejecting
// anything that is not a node number of a total-node machine.
func parseSharers(args []string, total int) ([]topology.NodeID, error) {
	var sharers []topology.NodeID
	for _, arg := range args {
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 || n >= total {
			return nil, fmt.Errorf("bad node number %q (machine has %d nodes)", arg, total)
		}
		sharers = append(sharers, topology.NodeID(n))
	}
	return sharers, nil
}
