(* The benchmark at test scale: it prints every metric BENCHMARK.json
   declares with its unit, its output checks pass and catch a pair off
   its reference digest, tracing and sinks leave the simulation
   untouched, and seed 0 reproduces the paper figures' averages as the
   experiment harness computes them. *)

open Perfbench
module C = Campaign
module H = Sdiq_harness
module Json = Sdiq_util.Json

let run ?(seed = 0) ~trace w = C.run ~scale:C.tiny ~seed ~seconds:0. ~trace w

(* dune runs the test in _build/default/perfbench/test *)
let declared = Report.declared ~file:"../../BENCHMARK.json"

let digests (ph : C.phase) =
  Array.to_list ph.C.first
  |> List.map (fun o -> (Option.get o).C.digest)

(* Every declared metric is printed on its own line with its unit and
   again in the JSON result, which reports a fully correct run. *)
let check_output w ~trace =
  let r = run ~trace w in
  let lines = Report.lines ~declared r in
  let last = List.nth lines (List.length lines - 1) in
  let result = Result.get_ok (Json.parse last) in
  let field k = Option.get (Json.member k result) in
  let name = C.workload_name w in
  Alcotest.(check (list string)) (name ^ " failures") [] (Report.failures r);
  Alcotest.(check bool) (name ^ " correct") true
    (field "correct" = Json.Bool true);
  Alcotest.(check (option int)) (name ^ " failed") (Some 0)
    (Json.to_int (field "failed"));
  Alcotest.(check bool) (name ^ " attempted") true
    (Option.get (Json.to_int (field "attempted")) >= 1);
  let metrics = field "metrics" in
  let decl = declared (if trace then "per_layer" else "end_to_end") in
  (match metrics with
  | Json.Obj kvs ->
    Alcotest.(check (list string)) (name ^ " metric names")
      (List.map fst decl) (List.map fst kvs)
  | _ -> Alcotest.fail "metrics is not an object");
  List.iter
    (fun (n, unit_) ->
      let m = Option.get (Json.member n metrics) in
      Alcotest.(check (option string)) (n ^ " unit") (Some unit_)
        (Option.bind (Json.member "unit" m) Json.to_str);
      Alcotest.(check bool) (n ^ " value") true
        (Option.is_some (Option.bind (Json.member "value" m) Json.to_float));
      Alcotest.(check bool) (n ^ " printed") true
        (List.exists
           (fun l ->
             match String.split_on_char ' ' l |> List.filter (( <> ) "") with
             | n' :: _ :: u :: _ -> n' = n && u = unit_
             | _ -> false)
           lines))
    decl;
  r

let test_untraced w () = ignore (check_output w ~trace:false : C.run)

let test_traced w () =
  let r = check_output w ~trace:true in
  let traced, _, _ = Option.get r.C.traced in
  Alcotest.(check (list string)) "no digest mismatch" [] r.C.mismatches;
  Alcotest.(check (list string)) "traced digests equal untraced"
    (digests r.C.untraced) (digests traced)

(* Seed 0 runs every pair from program start, exactly as the runner
   does: the same statistics, so the same Fig. 6 and Fig. 8 averages. *)
let test_seed0_matches_experiments () =
  let r = run ~trace:false C.Detailed in
  let runner =
    H.Runner.create ~domains:1 ~budget:C.tiny.C.budget
      ~benches:(C.tiny.C.kernels ()) ()
  in
  Array.iteri
    (fun k (bench, tech) ->
      let o = Option.get r.C.untraced.C.first.(k) in
      Alcotest.(check bool)
        (C.label (bench, tech) ^ " stats equal the runner's")
        true
        (Sdiq_cpu.Stats.equal o.C.stats (H.Runner.run runner bench tech)))
    r.C.untraced.C.labels;
  let values = Report.end_to_end_values r in
  let avg (e : H.Experiments.exp) =
    H.Experiments.avg_of (List.hd e.H.Experiments.columns)
  in
  Alcotest.(check (float 0.)) "noop_ipc_loss_pct is the Fig. 6 average"
    (avg (H.Experiments.fig6 runner))
    (List.assoc "noop_ipc_loss_pct" values);
  Alcotest.(check (float 0.)) "noop_iq_dyn_saving_pct is the Fig. 8 average"
    (avg (H.Experiments.fig8 runner))
    (List.assoc "noop_iq_dyn_saving_pct" values)

(* Sinks must not perturb the simulation: at a seed with start offsets,
   the observed pairs reproduce the detailed pairs' digests, and a
   repeated run reproduces its own. *)
let test_digests_across_workloads () =
  let seed = 7 in
  let by_label (r : C.run) =
    List.combine (Array.to_list r.C.untraced.C.labels) (digests r.C.untraced)
  in
  let detailed = by_label (run ~seed ~trace:false C.Detailed) in
  let observed = by_label (run ~seed ~trace:false C.Observed) in
  List.iter
    (fun (l, d) ->
      Alcotest.(check string) (C.label l ^ " observed = detailed")
        (List.assoc l detailed) d)
    observed;
  Alcotest.(check (list string)) "repeat run reproduces its digests"
    (List.map snd observed)
    (List.map snd (by_label (run ~seed ~trace:false C.Observed)))

(* A pair whose statistics differ from its reference digest, or that has
   none, fails the run. *)
let test_reference () =
  let seed = 3 in
  let first = run ~seed ~trace:false C.Detailed in
  let reference : C.reference = Hashtbl.create 16 in
  Array.iteri
    (fun k l ->
      Hashtbl.replace reference
        ("detailed", C.variant seed, C.label l)
        (Option.get first.C.untraced.C.first.(k)).C.digest)
    first.C.untraced.C.labels;
  let failures () =
    Report.failures
      (C.run ~scale:C.tiny ~reference ~seed ~seconds:0. ~trace:false
         C.Detailed)
  in
  Alcotest.(check (list string)) "matching reference" [] (failures ());
  let key = ("detailed", C.variant seed, "mcf/noop") in
  Hashtbl.replace reference key "0";
  Alcotest.(check (list string)) "wrong digest"
    [ "mcf/noop: statistics differ from the reference digest" ]
    (failures ());
  Hashtbl.remove reference key;
  Alcotest.(check (list string)) "no digest"
    [ "mcf/noop: no reference digest" ]
    (failures ())

let () =
  let per_workload f =
    List.map
      (fun (name, w) -> Alcotest.test_case name `Quick (f w))
      C.workloads
  in
  Alcotest.run "perfbench"
    [
      ("untraced", per_workload test_untraced);
      ("traced", per_workload test_traced);
      ( "simulation",
        [
          Alcotest.test_case "seed 0 matches fig6/fig8" `Quick
            test_seed0_matches_experiments;
          Alcotest.test_case "digests across workloads" `Quick
            test_digests_across_workloads;
          Alcotest.test_case "reference digests" `Quick test_reference;
        ] );
    ]
