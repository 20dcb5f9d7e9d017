(* A per-kind event counter: the canonical ~50-line sink. Used by the
   determinism tests (two runs are event-equivalent iff their count
   tables match) and by the bench pair as a cheap-but-real subscriber. *)

type t = int array (* one cell per Event kind, indexed by Event.index *)

let create () = Array.make Event.num_kinds 0

let sink (c : t) ev =
  let i = Event.index ev in
  c.(i) <- c.(i) + 1

let get (c : t) i = c.(i)
let total (c : t) = Array.fold_left ( + ) 0 c

(* One line, every kind in index order — byte-comparable across runs. *)
let to_string (c : t) =
  String.concat " "
    (List.init Event.num_kinds (fun i ->
         Printf.sprintf "%s=%d" (Event.kind_name_of_index i) c.(i)))

(* Every kind with its count and share of the total, in the stable
   [Event.index] order (the same order [to_string] uses). *)
let to_assoc (c : t) =
  let tot = total c in
  List.init Event.num_kinds (fun i ->
      let pct =
        if tot = 0 then 0. else 100. *. float_of_int c.(i) /. float_of_int tot
      in
      (Event.kind_name_of_index i, c.(i), pct))

(* Human-readable event mix: one kind per line, zero-count kinds
   elided, each with its percentage of the total event count. *)
let pp ppf c =
  let printed = ref false in
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (name, count, pct) ->
      if count > 0 then begin
        if !printed then Fmt.cut ppf ();
        printed := true;
        Fmt.pf ppf "%-16s %9d  %5.1f%%" name count pct
      end)
    (to_assoc c);
  Fmt.pf ppf "@]"
