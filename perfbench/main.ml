(* Command line of the repository benchmark:

     main.exe --workload detailed|sampled|observed --seed N --seconds S
              --trace 0|1 [--trace-out FILE]

   Run from the repository root. Runs one workload for S seconds of
   simulation and prints its digests, failures and the metrics
   BENCHMARK.json declares, ending with one JSON line. Every pair's
   statistics are checked against the reference digests of
   perfbench/expected.txt. A traced run also writes its spans as
   Chrome/Perfetto JSON (default perfbench/out/trace-WORKLOAD-seedN.json). *)

module C = Perfbench.Campaign

let usage () =
  prerr_endline
    "usage: main.exe --workload detailed|sampled|observed --seed N \
     --seconds S --trace 0|1 [--trace-out FILE]";
  exit 2

let () =
  let rec parse acc = function
    | key :: v :: rest when String.starts_with ~prefix:"--" key ->
      parse ((key, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get key conv =
    match Option.bind (List.assoc_opt key opts) conv with
    | Some v -> v
    | None -> usage ()
  in
  let non_negative conv check s =
    Option.bind (conv s) (fun v -> if check v then Some v else None)
  in
  let w = get "--workload" (fun s -> List.assoc_opt s C.workloads) in
  let seed = get "--seed" (non_negative int_of_string_opt (fun n -> n >= 0)) in
  let seconds =
    get "--seconds" (non_negative float_of_string_opt (fun f -> f >= 0.))
  in
  let trace =
    get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None)
  in
  let declared = Perfbench.Report.declared ~file:"BENCHMARK.json" in
  let reference = C.load_reference "perfbench/expected.txt" in
  let r = C.run ~reference ~seed ~seconds ~trace w in
  Option.iter
    (fun (_, _, (spans : Sdiq_util.Spanlog.result)) ->
      let file =
        match List.assoc_opt "--trace-out" opts with
        | Some f -> f
        | None ->
          if not (Sys.file_exists "perfbench/out") then
            Sys.mkdir "perfbench/out" 0o755;
          Printf.sprintf "perfbench/out/trace-%s-seed%d.json"
            (C.workload_name w) seed
      in
      Sdiq_obs.Telemetry.write_chrome file spans;
      Printf.printf "trace: %d spans written to %s\n"
        (List.length spans.Sdiq_util.Spanlog.spans)
        file)
    r.C.traced;
  List.iter print_endline (Perfbench.Report.lines ~declared r)
