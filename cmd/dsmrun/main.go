// Command dsmrun executes one application under one protocol and prints
// the full report — the quickest way to inspect a single cell of the
// evaluation matrix.
//
// Usage:
//
//	dsmrun [-app SOR] [-protocol WFS] [-procs 8] [-quick] [-protocols]
//	       [-transport sim|tcp] [-tcp-addrs a0,a1,...] [-tcp-local 0] [-timescale X]
//
// Any protocol registered with adsm.RegisterProtocol (e.g. HLRC) is
// selectable by name; -protocols lists them.
//
// With -transport tcp and no -tcp-addrs, the whole cluster runs as an
// in-process loopback mesh (every node a goroutine endpoint, every pair a
// real socket). With -tcp-addrs, this process hosts only the nodes in
// -tcp-local (default node 0) and expects one dsmnode peer per remaining
// node — a genuine multi-process run:
//
//	dsmnode -id 1 -addrs :7701,:7702,:7703 -app SOR -quick -protocol HLRC -procs 3 &
//	dsmnode -id 2 -addrs :7701,:7702,:7703 -app SOR -quick -protocol HLRC -procs 3 &
//	dsmrun -transport tcp -tcp-addrs :7701,:7702,:7703 -app SOR -quick -protocol HLRC -procs 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"adsm"
	"adsm/internal/apps"
)

func main() {
	appName := flag.String("app", "SOR", "application (SOR, IS, TSP, Water, 3D-FFT, Shallow, Barnes, ILINK)")
	protoName := flag.String("protocol", "WFS",
		"protocol ("+strings.Join(adsm.ProtocolNames(), ", ")+")")
	homeName := flag.String("home", "static",
		"home-assignment policy ("+strings.Join(adsm.HomePolicyNames(), ", ")+")")
	procs := flag.Int("procs", 8, "number of processors")
	quick := flag.Bool("quick", false, "use reduced inputs")
	list := flag.Bool("protocols", false, "list the registered protocols and exit")
	listHomes := flag.Bool("homes", false, "list the registered home policies and exit")
	transportName := flag.String("transport", "sim",
		"transport ("+strings.Join(adsm.TransportNames(), ", ")+")")
	tcpAddrs := flag.String("tcp-addrs", "",
		"comma-separated per-node listen addresses for -transport tcp (empty: in-process mesh)")
	tcpLocal := flag.String("tcp-local", "",
		"comma-separated node ids hosted by this process (default 0 when -tcp-addrs is set)")
	timescale := flag.Float64("timescale", 0,
		"scale modelled compute costs into real sleeps under -transport tcp (0: run flat out)")
	prefetch := flag.Bool("prefetch", true,
		"batch a span's page fetches into one overlapped Multicall (false: serial per-page faults)")
	lanes := flag.Int("lanes", 2,
		"data connections per node pair under -transport tcp: 1 (single shared) or 2 (control + bulk)")
	oneSided := flag.Bool("onesided", true,
		"serve clean page fetches one-sided from the peer's registered region (adds a region lane per pair)")
	omit := flag.Bool("omit", false,
		"empty provably-unobservable diffs before they ship (MW-family pages only; results are bit-identical)")
	flag.Parse()

	if *list {
		for _, p := range adsm.Protocols() {
			fmt.Printf("%-8s %s\n", p, p.Description())
		}
		return
	}
	if *listHomes {
		for _, h := range adsm.HomePolicies() {
			fmt.Printf("%-18s %s\n", h, h.Description())
		}
		return
	}

	proto, err := adsm.ParseProtocol(*protoName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(2)
	}
	home, err := adsm.ParseHomePolicy(*homeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(2)
	}
	app, err := apps.New(*appName, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(2)
	}
	tr, err := adsm.ParseTransport(*transportName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(2)
	}

	cfg := adsm.Config{Procs: *procs, Protocol: proto, HomePolicy: home, Transport: tr}
	adsm.WithSpanPrefetch(*prefetch)(&cfg)
	adsm.WithOmitWrites(*omit)(&cfg)
	if tr == adsm.TCPTransport {
		cfg.TCP.Timescale = *timescale
		cfg.TCP.Fingerprint = adsm.RunFingerprint(*appName, proto, home, *procs, *quick)
		cfg.TCP.Lanes = *lanes
		cfg.TCP.NoOneSided = !*oneSided
		if *tcpAddrs != "" {
			cfg.TCP.Addrs = strings.Split(*tcpAddrs, ",")
			cfg.TCP.Local = []int{0}
		}
		if *tcpLocal != "" {
			cfg.TCP.Local = nil
			for _, f := range strings.Split(*tcpLocal, ",") {
				id, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					fmt.Fprintln(os.Stderr, "dsmrun: bad -tcp-local:", err)
					os.Exit(2)
				}
				cfg.TCP.Local = append(cfg.TCP.Local, id)
			}
		}
	}

	cl, err := adsm.NewClusterErr(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(1)
	}
	app.Setup(cl)
	rep, err := cl.Run(app.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(1)
	}

	s := rep.Stats
	fmt.Printf("%s under %v on %d processors (%s homes, %s, %s transport)\n",
		app.Name(), proto, *procs, home, app.DataSet(), tr)
	if rep.Partial {
		fmt.Printf("  NOTE: multi-process endpoint; statistics cover the locally hosted nodes only\n")
	}
	clock := "virtual"
	if tr != adsm.SimTransport {
		clock = "wall"
	}
	fmt.Printf("  elapsed (%s)%s %v\n", clock, strings.Repeat(" ", 10-len(clock)), rep.Elapsed)
	if cl.Hosts(0) {
		// The checksum is computed by node 0's body; an endpoint hosting
		// only other nodes has nothing meaningful to print.
		fmt.Printf("  checksum             %v\n", app.Result())
	}
	fmt.Printf("  messages             %d (%.2f MB)\n", s.Messages, rep.DataMB())
	if s.WireFrames > 0 {
		fmt.Printf("  wire                 %d frames, %.2f MB real (model %.2f MB), encode %.2f ms\n",
			s.WireFrames, float64(s.WireBytes)/(1<<20), rep.DataMB(),
			float64(s.WireEncodeNS)/1e6)
	}
	if len(s.LaneBytes) > 1 {
		names := laneNames(len(s.LaneBytes), *oneSided)
		var parts []string
		for i, b := range s.LaneBytes {
			parts = append(parts, fmt.Sprintf("%s %.2f MB (q %d, hwm %d)",
				names[i], float64(b)/(1<<20), s.LaneQueueDepth[i], s.LaneQueueHWM[i]))
		}
		fmt.Printf("  lanes                %s\n", strings.Join(parts, ", "))
	}
	if s.OneSidedReads > 0 || s.OneSidedFallbacks > 0 {
		fmt.Printf("  one-sided reads      %d served from peer regions, %d fell back to the handler\n",
			s.OneSidedReads, s.OneSidedFallbacks)
	}
	fmt.Printf("  faults               %d read, %d write\n", s.ReadFaults, s.WriteFaults)
	fmt.Printf("  page fetches         %d\n", s.PageFetches)
	if s.BatchedFetches > 0 || s.SerialFallbacks > 0 {
		fmt.Printf("  span prefetch        %d batched rounds, %d pages, %d serial fallbacks\n",
			s.BatchedFetches, s.PrefetchPages, s.SerialFallbacks)
	}
	fmt.Printf("  ownership            %d requests, %d grants, %d refusals, %d forwards\n",
		s.OwnershipRequests, s.OwnershipGrants, s.OwnershipRefusals, s.Forwards)
	if s.BatchedOwnReqs > 0 {
		fmt.Printf("  grant batching       %d ownership requests rode grouped batches\n", s.BatchedOwnReqs)
	}
	fmt.Printf("  twins/diffs          %d twins, %d diffs created (%.2f MB), %d applied\n",
		s.TwinsCreated, s.DiffsCreated, rep.MemoryMB(), s.DiffsApplied)
	fmt.Printf("  mode transitions     %d SW->MW, %d MW->SW\n", s.SWtoMW, s.MWtoSW)
	if s.OmittedWrites > 0 {
		fmt.Printf("  omitted writes       %d dominated diffs emptied (%d bytes never shipped)\n",
			s.OmittedWrites, s.OmittedBytes)
	}
	fmt.Printf("  garbage collections  %d\n", s.GCRuns)
	if s.HomeFlushes > 0 || s.HomeLocalDiffs > 0 || s.HomeBinds > 0 {
		fmt.Printf("  home flushes         %d remote (%.2f MB), %d local diffs, %d binds\n",
			s.HomeFlushes, float64(s.HomeFlushBytes)/(1<<20), s.HomeLocalDiffs, s.HomeBinds)
	}
	fmt.Printf("  synchronization      %d lock acquires, %d barriers\n", s.LockAcquires, s.Barriers)
	fmt.Printf("  sharing (Table 2)    %.1f%% WW falsely shared pages, avg diff %.0f B\n",
		rep.Sharing.FSPercent, rep.Sharing.AvgDiffBytes)
}

// laneNames labels the per-lane stat slices: control, bulk, and — when
// one-sided reads are on — the region lane, which is always last.
func laneNames(n int, oneSided bool) []string {
	names := make([]string, n)
	for i := range names {
		switch {
		case i == 0:
			names[i] = "control"
		case oneSided && i == n-1:
			names[i] = "region"
		default:
			names[i] = "bulk"
		}
	}
	return names
}
