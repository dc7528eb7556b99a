// Command resultcalc is the benchmark's standalone result calculator
// (phase 3 of the process in Figure 5): it loads a broker snapshot and
// computes the execution time of a query from LogAppendTime timestamps
// alone — the difference between the last and first record appended to
// the output topic. This keeps the measurement application- and
// system-independent (Section III-A3 of the paper).
//
// With -latency it additionally computes the per-record event-time
// latency distribution (p50/p90/p99/max): each output record's append
// time minus the append time of the input record that produced it. The
// pairing follows the query's deterministic semantics (-query, -seed)
// and matches output payloads FIFO against the surviving inputs'
// expected outputs, so it stays correct even when parallel engine
// partitions interleave the output topic. For the keyed windowedcount
// query each output pane pairs with its latest contributing input — the
// record whose arrival completed the window — so the latency measures
// pane-completion delay. This, too, needs broker state only.
//
// Usage:
//
//	resultcalc -in broker.snap -topic output
//	resultcalc -in broker.snap -latency -query grep
//	resultcalc -in broker.snap -latency -query windowedcount
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"beambench/internal/broker"
	"beambench/internal/metrics"
	"beambench/internal/queries"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "resultcalc:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("resultcalc", flag.ContinueOnError)
	var (
		inPath   = fs.String("in", "", "broker snapshot file to load")
		topic    = fs.String("topic", "output", "topic to measure")
		latency  = fs.Bool("latency", false, "compute per-record event-time latency against -input")
		inTopic  = fs.String("input", "input", "input topic for -latency pairing")
		queryArg = fs.String("query", "identity", "query semantics for -latency pairing: "+strings.Join(queries.Names(), "|"))
		seed     = fs.Uint64("seed", 7, "sample query seed for -latency pairing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" {
		return fmt.Errorf("missing -in snapshot path")
	}
	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	defer f.Close()

	b := broker.New()
	if err := b.LoadSnapshot(f); err != nil {
		return err
	}
	first, last, n, err := b.TimeSpan(*topic)
	if err != nil {
		return err
	}
	if n == 0 {
		fmt.Fprintf(out, "topic %q is empty; no execution time\n", *topic)
		return nil
	}
	fmt.Fprintf(out, "topic:           %s\n", *topic)
	fmt.Fprintf(out, "records:         %d\n", n)
	fmt.Fprintf(out, "first append:    %s\n", first.Format(time.RFC3339Nano))
	fmt.Fprintf(out, "last append:     %s\n", last.Format(time.RFC3339Nano))
	fmt.Fprintf(out, "execution time:  %v\n", last.Sub(first))
	if !*latency {
		return nil
	}
	return printLatency(out, b, *inTopic, *topic, *queryArg, *seed)
}

// printLatency pairs each output record with the input record that
// produced it via queries.SurvivorIndex — the identical logic the
// harness uses in-process — and prints the latency quantiles through
// the same exact summary.
func printLatency(out io.Writer, b *broker.Broker, inTopic, outTopic, queryArg string, seed uint64) error {
	q, err := queries.ParseQuery(queryArg)
	if err != nil {
		return err
	}
	ix, err := queries.NewSurvivorIndex(q, seed)
	if err != nil {
		return err
	}
	for _, topic := range []string{inTopic, outTopic} {
		parts, err := b.Partitions(topic)
		if err != nil {
			return err
		}
		if parts != 1 {
			return fmt.Errorf("latency pairing needs single-partition topics; %q has %d partitions", topic, parts)
		}
	}
	inRecs, err := b.Records(inTopic, 0)
	if err != nil {
		return fmt.Errorf("reading %q: %w", inTopic, err)
	}
	for _, r := range inRecs {
		ix.AddInput(r.Value)
	}
	outRecs, err := b.Records(outTopic, 0)
	if err != nil {
		return fmt.Errorf("reading %q: %w", outTopic, err)
	}
	if ix.Expected() != len(outRecs) {
		return fmt.Errorf("cannot pair latencies: %d output records but %d inputs survive the %s query",
			len(outRecs), ix.Expected(), q)
	}
	pairing := ix.NewPairing()
	sketch := metrics.MustSketch()
	for _, r := range outRecs {
		in, err := pairing.Pair(r.Value)
		if err != nil {
			return fmt.Errorf("cannot pair latencies: %w", err)
		}
		sketch.Insert(r.Timestamp.Sub(inRecs[in].Timestamp).Seconds())
	}
	fmt.Fprintf(out, "event-time latency (%s pairing, n=%d):\n", queryArg, sketch.Count())
	fmt.Fprintf(out, "  p50:  %vs\n", sketch.Quantile(0.50))
	fmt.Fprintf(out, "  p90:  %vs\n", sketch.Quantile(0.90))
	fmt.Fprintf(out, "  p99:  %vs\n", sketch.Quantile(0.99))
	fmt.Fprintf(out, "  max:  %vs\n", sketch.Max())
	return nil
}
