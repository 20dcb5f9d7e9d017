(* Shared helpers for the test suite (Str is not linked). *)

(* Does [hay] contain [needle] as a substring? *)
let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* Every event a fresh pipeline emits while running [prog] (set up by
   [init]) for [budget] committed instructions, in emission order. *)
let record_stream ?policy ~init ~budget prog =
  let p = Sdiq_cpu.Pipeline.create ?policy prog in
  let evs = ref [] in
  Sdiq_cpu.Pipeline.subscribe ~name:"recorder" p (fun e -> evs := e :: !evs);
  init p.Sdiq_cpu.Pipeline.exec;
  ignore (Sdiq_cpu.Pipeline.run ~max_insns:budget p : Sdiq_cpu.Stats.t);
  Array.of_list (List.rev !evs)

(* Run one of the split test executables (see test_main.ml). Alcotest
   shortens a test's printed name to fit beside the longest group name
   of its run, so each executable also registers an empty group as long
   as the longest group name of them all ("certificate"): a test prints
   the same name whichever executable runs it. *)
let run_split name groups =
  Alcotest.run name (groups @ [ (String.make 11 '_', []) ])
