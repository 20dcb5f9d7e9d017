(* The observability layer (lib/obs): histogram/series/metrics algebra,
   the static region map, and the profiler's conservation law — the
   per-region attribution buckets sum back to the pipeline's own
   statistics exactly, and pricing the sum reproduces the power meter
   float for float, on every benchmark x delivering technique. *)

module Hist = Sdiq_obs.Hist
module Series = Sdiq_obs.Series
module Metrics = Sdiq_obs.Metrics
module Region = Sdiq_obs.Region
module Profiler = Sdiq_obs.Profiler
module Hostprof = Sdiq_obs.Hostprof
module Technique = Sdiq_harness.Technique
module Runner = Sdiq_harness.Runner
module Pipeline = Sdiq_cpu.Pipeline
module Stats = Sdiq_cpu.Stats
module Bench = Sdiq_workloads.Bench

(* --- histograms --------------------------------------------------------- *)

let test_hist_linear () =
  let h = Hist.create (Hist.Linear { width = 8; buckets = 4 }) in
  List.iter (Hist.observe h) [ 0; 7; 8; 15; 100; -3 ];
  Alcotest.(check (array int)) "buckets" [| 3; 2; 0; 1 |] (Hist.buckets h);
  Alcotest.(check int) "count" 6 (Hist.count h);
  Alcotest.(check int) "sum (negatives clamp to 0)" 130 (Hist.sum h);
  Alcotest.(check int) "min" 0 (Hist.min_value h);
  Alcotest.(check int) "max" 100 (Hist.max_value h)

let test_hist_log2 () =
  let k = Hist.Log2 { buckets = 4 } in
  let h = Hist.create k in
  List.iter (Hist.observe h) [ 0; 1; 2; 3; 4; 7; 1000 ];
  (* 0 -> b0; 1 -> b1; 2,3 -> b2; 4,7 -> b3; 1000 clamps into b3 *)
  Alcotest.(check (array int)) "buckets" [| 1; 1; 2; 3 |] (Hist.buckets h);
  Alcotest.(check int) "bucket of 0" 0 (Hist.bucket_index k 0);
  Alcotest.(check int) "bucket of 1" 1 (Hist.bucket_index k 1);
  Alcotest.(check int) "bucket of 5" 3 (Hist.bucket_index k 5)

let test_hist_merge_shape_mismatch () =
  let a = Hist.create (Hist.Linear { width = 8; buckets = 4 }) in
  let b = Hist.create (Hist.Linear { width = 4; buckets = 4 }) in
  Alcotest.check_raises "shape mismatch rejected"
    (Invalid_argument "Hist.merge: shape mismatch") (fun () ->
      ignore (Hist.merge a b))

let test_series_windowing () =
  let s = Series.create ~window:10 in
  Series.observe s ~cycle:0 2;
  Series.observe s ~cycle:9 3;
  Series.observe s ~cycle:25 7;
  Alcotest.(check int) "length spans highest cell" 3 (Series.length s);
  Alcotest.(check int) "cell 0" 5 (Series.get s 0);
  Alcotest.(check int) "cell 1 (gap)" 0 (Series.get s 1);
  Alcotest.(check int) "cell 2" 7 (Series.get s 2);
  Alcotest.(check int) "total" 12 (Series.total s)

let test_metrics_render_insertion_independent () =
  let build order =
    let m = Metrics.create () in
    List.iter (fun (k, v) -> Metrics.incr ~by:v m k) order;
    Metrics.set_gauge m "g" 2.5;
    Hist.observe (Metrics.hist m "h" (Hist.Linear { width = 2; buckets = 3 })) 4;
    Series.observe (Metrics.series m "s" ~window:5) ~cycle:7 1;
    m
  in
  let a = build [ ("x", 1); ("y", 2); ("z", 3) ] in
  let b = build [ ("z", 3); ("x", 1); ("y", 2) ] in
  Alcotest.(check bool) "equal" true (Metrics.equal a b);
  Alcotest.(check string) "byte-identical rendering" (Metrics.to_string a)
    (Metrics.to_string b)

(* --- merge algebra (qcheck) --------------------------------------------- *)

let prop_count = 200

let hist_of kind obs =
  let h = Hist.create kind in
  List.iter (Hist.observe h) obs;
  h

let gen_hist_kind =
  QCheck.Gen.oneofl
    [ Hist.Linear { width = 4; buckets = 6 }; Hist.Log2 { buckets = 8 } ]

let arbitrary_hist_triple =
  let gen =
    let open QCheck.Gen in
    let obs = list_size (int_range 0 30) (int_range 0 200) in
    gen_hist_kind >>= fun kind ->
    map3 (fun a b c -> (kind, a, b, c)) obs obs obs
  in
  QCheck.make gen ~print:(fun (kind, a, b, c) ->
      Printf.sprintf "%s / %s / %s"
        (Hist.to_string (hist_of kind a))
        (Hist.to_string (hist_of kind b))
        (Hist.to_string (hist_of kind c)))

let prop_hist_merge_assoc_comm =
  QCheck.Test.make ~count:prop_count
    ~name:"histogram merge is associative and commutative"
    arbitrary_hist_triple
    (fun (kind, oa, ob, oc) ->
      let a = hist_of kind oa and b = hist_of kind ob and c = hist_of kind oc in
      Hist.equal
        (Hist.merge (Hist.merge a b) c)
        (Hist.merge a (Hist.merge b c))
      && Hist.to_string (Hist.merge a b) = Hist.to_string (Hist.merge b a))

let series_of window obs =
  let s = Series.create ~window in
  List.iter (fun (cycle, v) -> Series.observe s ~cycle v) obs;
  s

let arbitrary_series_triple =
  let gen =
    let open QCheck.Gen in
    let obs =
      list_size (int_range 0 30)
        (pair (int_range 0 100) (int_range 0 10))
    in
    oneofl [ 1; 5; 16 ] >>= fun window ->
    map3 (fun a b c -> (window, a, b, c)) obs obs obs
  in
  QCheck.make gen ~print:(fun (window, a, b, c) ->
      Printf.sprintf "%s / %s / %s"
        (Series.to_string (series_of window a))
        (Series.to_string (series_of window b))
        (Series.to_string (series_of window c)))

let prop_series_merge_assoc_comm =
  QCheck.Test.make ~count:prop_count
    ~name:"series merge is associative and commutative"
    arbitrary_series_triple
    (fun (window, oa, ob, oc) ->
      let a = series_of window oa
      and b = series_of window ob
      and c = series_of window oc in
      Series.equal
        (Series.merge (Series.merge a b) c)
        (Series.merge a (Series.merge b c))
      && Series.to_string (Series.merge a b)
         = Series.to_string (Series.merge b a))

type metrics_op =
  | Op_counter of string * int
  | Op_gauge of string * float
  | Op_hist of string * int
  | Op_series of string * int * int

let metrics_of ops =
  let m = Metrics.create () in
  List.iter
    (function
      | Op_counter (k, v) -> Metrics.incr ~by:v m k
      | Op_gauge (k, v) -> Metrics.set_gauge m k v
      | Op_hist (k, v) ->
        Hist.observe (Metrics.hist m k (Hist.Linear { width = 2; buckets = 4 })) v
      | Op_series (k, cycle, v) ->
        Series.observe (Metrics.series m k ~window:8) ~cycle v)
    ops;
  m

let gen_metrics_op =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  frequency
    [
      (3, map2 (fun k v -> Op_counter (k, v)) name (int_range 0 50));
      (2, map2 (fun k v -> Op_gauge (k, float_of_int v)) name (int_range 0 50));
      (2, map2 (fun k v -> Op_hist (k, v)) name (int_range 0 20));
      ( 2,
        map3 (fun k c v -> Op_series (k, c, v)) name (int_range 0 60)
          (int_range 0 9) );
    ]

let arbitrary_metrics_triple =
  let gen =
    let open QCheck.Gen in
    let ops = list_size (int_range 0 25) gen_metrics_op in
    map3 (fun a b c -> (a, b, c)) ops ops ops
  in
  QCheck.make gen ~print:(fun (a, b, c) ->
      Printf.sprintf "%s\n--\n%s\n--\n%s"
        (Metrics.to_string (metrics_of a))
        (Metrics.to_string (metrics_of b))
        (Metrics.to_string (metrics_of c)))

let prop_metrics_merge_assoc_comm =
  QCheck.Test.make ~count:prop_count
    ~name:"metrics merge is associative and commutative"
    arbitrary_metrics_triple
    (fun (oa, ob, oc) ->
      let a = metrics_of oa and b = metrics_of ob and c = metrics_of oc in
      Metrics.equal
        (Metrics.merge (Metrics.merge a b) c)
        (Metrics.merge a (Metrics.merge b c))
      && Metrics.to_string (Metrics.merge a b)
         = Metrics.to_string (Metrics.merge b a))

(* --- the region map ----------------------------------------------------- *)

let gzip () = (List.hd (Sdiq_workloads.Suite.tiny ())).Bench.prog

let test_region_map_noop () =
  let prog = gzip () in
  let map = Region.build Region.Noop prog in
  let infos = Region.infos map in
  Alcotest.(check bool) "startup region first" true
    (infos.(0).Region.kind = Region.Startup);
  Alcotest.(check bool) "more than just startup" true (Region.count map > 1);
  (* NOOP delivery inserts instructions, so the running binary is
     longer and region starts live in the shifted address space. *)
  Alcotest.(check bool) "running binary grew" true
    (Sdiq_isa.Prog.length (Region.running_prog map)
    > Sdiq_isa.Prog.length prog);
  Array.iter
    (fun (info : Region.info) ->
      if info.Region.kind <> Region.Startup then
        Alcotest.(check int)
          (Printf.sprintf "region %d owns its own start" info.Region.id)
          info.Region.id
          (Region.of_addr map info.Region.start))
    infos;
  (* every address belongs to some region *)
  for addr = 0 to Sdiq_isa.Prog.length (Region.running_prog map) - 1 do
    let r = Region.of_addr map addr in
    if r < 0 || r >= Region.count map then
      Alcotest.failf "address %d mapped to bad region %d" addr r
  done

let test_region_map_matches_technique () =
  let prog = gzip () in
  List.iter
    (fun tech ->
      let map = Region.build (Technique.delivery tech) prog in
      let prepared = Technique.prepare tech prog in
      Alcotest.(check int)
        (Technique.name tech ^ ": running binary length matches prepare")
        (Sdiq_isa.Prog.length prepared)
        (Sdiq_isa.Prog.length (Region.running_prog map)))
    Technique.all

(* --- conservation ------------------------------------------------------- *)

let budget = 2_000
let delivering = [ Technique.Noop; Technique.Extension; Technique.Improved ]

let test_attribution_conservation () =
  let benches = Sdiq_workloads.Suite.tiny () in
  let runner = Runner.create ~budget ~benches () in
  List.iter
    (fun (bench : Bench.t) ->
      List.iter
        (fun tech ->
          let where what =
            bench.Bench.name ^ "/" ^ Technique.name tech ^ " " ^ what
          in
          let map = Region.build (Technique.delivery tech) bench.Bench.prog in
          let p =
            Pipeline.create
              ~policy:(Technique.policy tech)
              (Region.running_prog map)
          in
          let prof = Profiler.attach map p in
          let folded = Stats.create () in
          Pipeline.subscribe ~name:"stats-fold" p (Stats.absorb folded);
          bench.Bench.init p.Pipeline.exec;
          let stats = Pipeline.run ~max_insns:budget p in
          let total = Profiler.total_stats prof in
          (* integer conservation: the region buckets sum back to the
             pipeline's own fold and to an independent fold of the same
             event stream *)
          Alcotest.(check bool)
            (where "region sum == pipeline stats")
            true (Stats.equal total stats);
          Alcotest.(check bool)
            (where "region sum == Stats.absorb fold")
            true (Stats.equal total folded);
          (* and the profiled run is the same simulation the runner's
             (independent, unprofiled) campaign performs *)
          let rstats = Runner.run runner bench.Bench.name tech in
          Alcotest.(check bool)
            (where "matches runner's independent run")
            true (Stats.equal total rstats);
          (* the metrics registry agrees with the statistics *)
          let metrics = Profiler.metrics prof in
          Alcotest.(check int)
            (where "commits counter")
            stats.Stats.committed
            (Metrics.counter metrics "commits");
          Alcotest.(check int)
            (where "cycles counter")
            stats.Stats.cycles
            (Metrics.counter metrics "cycles"))
        delivering)
    benches

let test_slack_report_nonempty () =
  let benches = Sdiq_workloads.Suite.tiny () in
  let runner = Runner.create ~budget ~benches () in
  let prof = Runner.profile runner "gzip" Technique.Noop in
  let entries = Profiler.slack prof in
  Alcotest.(check bool) "gzip noop has granted regions" true (entries <> []);
  Alcotest.(check bool) "at least one over-provisioned region" true
    (List.exists (fun (e : Profiler.slack_entry) -> e.Profiler.slack > 0) entries)

(* --- sharded determinism ------------------------------------------------ *)

let test_profile_all_deterministic () =
  let benches =
    List.filter
      (fun (b : Bench.t) -> List.mem b.Bench.name [ "gzip"; "gcc"; "mcf" ])
      (Sdiq_workloads.Suite.tiny ())
  in
  let techniques = [ Technique.Noop; Technique.Improved ] in
  let serial = Runner.create ~budget ~benches ~domains:1 () in
  let sharded = Runner.create ~budget ~benches ~domains:3 () in
  let pairs_s, campaign_s = Runner.profile_all ~techniques serial in
  let pairs_p, campaign_p = Runner.profile_all ~techniques sharded in
  Alcotest.(check int) "same grid size" (List.length pairs_s)
    (List.length pairs_p);
  Alcotest.(check string) "campaign metrics byte-identical"
    (Metrics.to_string campaign_s)
    (Metrics.to_string campaign_p);
  List.iter2
    (fun (n1, t1, prof1) (n2, t2, prof2) ->
      Alcotest.(check string) "pair order" n1 n2;
      Alcotest.(check string) "pair technique"
        (Technique.name t1) (Technique.name t2);
      Alcotest.(check string)
        (n1 ^ "/" ^ Technique.name t1 ^ " profile byte-identical")
        (Profiler.to_json prof1) (Profiler.to_json prof2))
    pairs_s pairs_p

(* --- the sink against its reference ------------------------------------ *)

(* The region profiler's sink as it was when every counter went through
   a string-keyed [Metrics.incr] per event: the reference the
   cell-based sink must reproduce byte for byte. (It also kept a
   per-region occupancy histogram that nothing ever read; that is left
   out.) *)
module Reference = struct
  module Event = Sdiq_events.Event

  type per = { stats : Stats.t; mutable peak : int }

  type t = {
    map : Region.t;
    regions : per array;
    metrics : Metrics.t;
    commits_series : Series.t;
    wakeups_series : Series.t;
    occ_hist : Hist.t;
    wakeup_hist : Hist.t;
    mutable cur : int;
    mutable cycle : int;
  }

  let create map =
    let cfg = Sdiq_cpu.Config.default and window = 1000 in
    let occ_kind =
      Hist.Linear { width = 8; buckets = (cfg.Sdiq_cpu.Config.iq_size / 8) + 1 }
    in
    let metrics = Metrics.create () in
    {
      map;
      regions =
        Array.init (Region.count map) (fun _ ->
            { stats = Stats.create (); peak = 0 });
      metrics;
      commits_series = Metrics.series metrics "commits_per_window" ~window;
      wakeups_series =
        Metrics.series metrics "wakeups_gated_per_window" ~window;
      occ_hist = Metrics.hist metrics "iq_occupancy" occ_kind;
      wakeup_hist =
        Metrics.hist metrics "wakeup_gated" (Hist.Log2 { buckets = 16 });
      cur = 0;
      cycle = 0;
    }

  let sink t ev =
    (match ev with
    | Event.Commit { dyn } ->
      let r = Region.of_addr t.map dyn.Sdiq_isa.Exec.pc in
      if r <> t.cur then begin
        t.cur <- r;
        Metrics.incr t.metrics "region_switches"
      end
    | _ -> ());
    let per = t.regions.(t.cur) in
    (match ev with
    | Event.Cycle_end { iq_occupancy; _ } ->
      let spent = per.stats.Stats.cycles in
      Stats.absorb per.stats ev;
      per.stats.Stats.cycles <- spent + 1;
      if iq_occupancy > per.peak then per.peak <- iq_occupancy
    | _ -> Stats.absorb per.stats ev);
    Metrics.incr t.metrics "events";
    match ev with
    | Event.Commit _ ->
      Metrics.incr t.metrics "commits";
      Series.observe t.commits_series ~cycle:t.cycle 1
    | Event.Wakeup { gated; _ } ->
      Metrics.incr ~by:gated t.metrics "wakeups_gated";
      Hist.observe t.wakeup_hist gated;
      Series.observe t.wakeups_series ~cycle:t.cycle gated
    | Event.Cycle_end { cycle; iq_occupancy; _ } ->
      Metrics.incr t.metrics "cycles";
      Hist.observe t.occ_hist iq_occupancy;
      t.cycle <- cycle + 1
    | _ -> ()
end

(* Feed [events] to a fresh profiler and a fresh reference. The
   registries must render byte-identically, and every region's bucket
   and peak must agree: those are all [Profiler.to_json] reads from the
   stream, the map and the energy parameters being shared. *)
let check_against_reference where map events =
  let prof = Profiler.create map in
  let r = Reference.create map in
  Array.iter
    (fun ev ->
      Profiler.sink prof ev;
      Reference.sink r ev)
    events;
  let m = Profiler.metrics prof in
  Alcotest.(check string)
    (where ^ ": Metrics.to_string")
    (Metrics.to_string r.Reference.metrics) (Metrics.to_string m);
  Alcotest.(check string)
    (where ^ ": Metrics.to_json")
    (Metrics.to_json r.Reference.metrics) (Metrics.to_json m);
  Array.iteri
    (fun i (per : Reference.per) ->
      if not (Stats.equal per.Reference.stats (Profiler.region_stats prof i))
      then Alcotest.failf "%s: region %d statistics differ" where i;
      if per.Reference.peak <> Profiler.region_peak prof i then
        Alcotest.failf "%s: region %d peak %d, reference %d" where i
          (Profiler.region_peak prof i) per.Reference.peak)
    r.Reference.regions;
  prof

(* Every tiny kernel under every technique and three schedulers: a
   stream recorded once is replayed into the profiler and its
   reference, and the replayed profile must also render the same JSON
   as a profiler attached to the recording run. *)
let test_sink_matches_reference () =
  let scheds = Sdiq_cpu.Sched.[ oldest_first; nskip ~n:2; load_delay ] in
  List.iter
    (fun (bench : Bench.t) ->
      List.iter
        (fun tech ->
          let map = Region.build (Technique.delivery tech) bench.Bench.prog in
          List.iter
            (fun sched ->
              let where =
                Printf.sprintf "%s/%s/%s" bench.Bench.name
                  (Technique.name tech) (Sdiq_cpu.Sched.name sched)
              in
              let p =
                Pipeline.create ~policy:(Technique.policy tech) ~sched
                  (Region.running_prog map)
              in
              let live = Profiler.attach map p in
              let evs = ref [] in
              Pipeline.subscribe ~name:"recorder" p (fun e -> evs := e :: !evs);
              bench.Bench.init p.Pipeline.exec;
              ignore (Pipeline.run ~max_insns:budget p : Stats.t);
              let replayed =
                check_against_reference where map
                  (Array.of_list (List.rev !evs))
              in
              Alcotest.(check string)
                (where ^ ": replayed profile == live profile")
                (Profiler.to_json live) (Profiler.to_json replayed))
            scheds)
        Technique.extended)
    (Sdiq_workloads.Suite.tiny ())

(* Counters that never occur stay absent, as with [Metrics.incr]: an
   empty stream leaves no counter at all, and a stream without commits
   or wakeups has no commits, region_switches or wakeups_gated. *)
let test_absent_counters_stay_absent () =
  let bench = List.hd (Sdiq_workloads.Suite.tiny ()) in
  let map = Region.build Region.Noop bench.Bench.prog in
  let counters prof = List.map fst (Metrics.counters (Profiler.metrics prof)) in
  let empty = check_against_reference "empty stream" map [||] in
  Alcotest.(check (list string)) "no counters" [] (counters empty);
  let evs =
    Test_util.record_stream
      ~policy:(Technique.policy Technique.Noop)
      ~init:bench.Bench.init ~budget (Region.running_prog map)
  in
  let quiet =
    Array.of_list
      (List.filter
         (function
           | Sdiq_events.Event.Commit _ | Sdiq_events.Event.Wakeup _ -> false
           | _ -> true)
         (Array.to_list evs))
  in
  let prof = check_against_reference "no commits or wakeups" map quiet in
  Alcotest.(check (list string)) "only events and cycles"
    [ "cycles"; "events" ] (counters prof)

(* --- host self-profiling ------------------------------------------------ *)

let test_hostprof_smoke () =
  let bench = List.hd (Sdiq_workloads.Suite.tiny ()) in
  let prog = Technique.prepare Technique.Noop bench.Bench.prog in
  let p = Pipeline.create ~policy:(Technique.policy Technique.Noop) prog in
  let host = Hostprof.attach ~sample:100 p in
  bench.Bench.init p.Pipeline.exec;
  let stats = Pipeline.run ~max_insns:budget p in
  Alcotest.(check int) "saw every cycle" stats.Stats.cycles
    (Hostprof.cycles host);
  Alcotest.(check bool) "saw events" true (Hostprof.events host > 0);
  let total_s =
    List.fold_left (fun acc (_, s) -> acc +. s) 0. (Hostprof.stage_seconds host)
  in
  Alcotest.(check bool) "accumulated wall clock" true (total_s > 0.);
  let json = Hostprof.to_json host in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true (Test_util.contains ~needle json))
    [ {|"stages"|}; {|"gc"|}; {|"events"|} ]

let suite =
  [
    Alcotest.test_case "hist: linear bucketing" `Quick test_hist_linear;
    Alcotest.test_case "hist: log2 bucketing" `Quick test_hist_log2;
    Alcotest.test_case "hist: merge rejects shape mismatch" `Quick
      test_hist_merge_shape_mismatch;
    Alcotest.test_case "series: windowing and gaps" `Quick
      test_series_windowing;
    Alcotest.test_case "metrics: rendering is insertion-independent" `Quick
      test_metrics_render_insertion_independent;
    QCheck_alcotest.to_alcotest prop_hist_merge_assoc_comm;
    QCheck_alcotest.to_alcotest prop_series_merge_assoc_comm;
    QCheck_alcotest.to_alcotest prop_metrics_merge_assoc_comm;
    Alcotest.test_case "region map: noop delivery" `Quick test_region_map_noop;
    Alcotest.test_case "region map: running binary matches prepare" `Quick
      test_region_map_matches_technique;
    Alcotest.test_case "attribution conservation (all benches x deliveries)"
      `Quick test_attribution_conservation;
    Alcotest.test_case "slack report flags over-provisioned regions" `Quick
      test_slack_report_nonempty;
    Alcotest.test_case "sharded profiling campaign is deterministic" `Quick
      test_profile_all_deterministic;
    Alcotest.test_case "profiler sink matches its string-keyed reference"
      `Quick test_sink_matches_reference;
    Alcotest.test_case "profiler counters that never occur stay absent"
      `Quick test_absent_counters_stay_absent;
    Alcotest.test_case "hostprof smoke" `Quick test_hostprof_smoke;
  ]
