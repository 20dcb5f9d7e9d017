(* Averages over the harness's per-benchmark result lists. *)

let mean_of list =
  match list with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. list /. float_of_int (List.length list)
