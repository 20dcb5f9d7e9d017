(* Rewrites the benchmark's reference digests:

     dune exec perfbench/expect.exe > perfbench/expected.txt

   Run from the repository root. Runs one round of every workload at
   every seed variant and prints each pair's digest as one
   "workload variant pair digest" line, the format
   Campaign.load_reference reads. Rewrite the file only for a change
   that is meant to alter the simulated output. Each variant's simulated
   end-to-end metrics go to stderr. *)

module C = Perfbench.Campaign

let () =
  print_endline
    "# workload variant pair digest: the statistics every benchmark pair\n\
     # must reproduce (written by perfbench/expect.exe)";
  List.iter
    (fun (name, w) ->
      let last = if w = C.Sampled then 0 else C.variants in
      for v = 0 to last do
        (* Seed v falls in variant v. *)
        let r = C.run ~seed:v ~seconds:0. ~trace:false w in
        (match Perfbench.Report.failures r with
        | [] -> ()
        | fs ->
          List.iter (fun f -> prerr_endline ("FAILED " ^ f)) fs;
          exit 1);
        Array.iteri
          (fun k o ->
            let o = Option.get o in
            Printf.printf "%s %d %s %s\n" name v
              (C.label r.C.untraced.C.labels.(k))
              o.C.digest)
          r.C.untraced.C.first;
        Printf.eprintf "%s %d%s\n%!" name v
          (String.concat ""
             (List.filter_map
                (fun (m, x) ->
                  if List.mem m [ "mips"; "setup_s"; "heap_peak_mb" ] then None
                  else Some (Printf.sprintf " %s=%.17g" m x))
                (Perfbench.Report.end_to_end_values r)))
      done)
    C.workloads
