(* Named counters, gauges, histograms and time series.

   Hashtbl-backed for O(1) hot-path updates; every listing sorts by
   name so rendering is canonical whatever the insertion or hashing
   order. Merge rules (sum / max / cell-wise) are all associative and
   commutative — the sharded-campaign determinism the test suite pins
   depends on exactly that. *)

module Json = Sdiq_util.Json

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
  series : (string, Series.t) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 8;
    series = Hashtbl.create 8;
  }

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let cell t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace t.counters name r;
    r

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let gauge t name = Option.map ( ! ) (Hashtbl.find_opt t.gauges name)

let hist t name kind =
  match Hashtbl.find_opt t.hists name with
  | Some h ->
    if Hist.kind h <> kind then
      invalid_arg ("Metrics.hist: shape mismatch for " ^ name);
    h
  | None ->
    let h = Hist.create kind in
    Hashtbl.replace t.hists name h;
    h

let find_hist t name = Hashtbl.find_opt t.hists name

let series t name ~window =
  match Hashtbl.find_opt t.series name with
  | Some s ->
    if Series.window s <> window then
      invalid_arg ("Metrics.series: window mismatch for " ^ name);
    s
  | None ->
    let s = Series.create ~window in
    Hashtbl.replace t.series name s;
    s

let find_series t name = Hashtbl.find_opt t.series name

let sorted_assoc table value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_assoc t.counters ( ! )
let gauges t = sorted_assoc t.gauges ( ! )
let hists t = sorted_assoc t.hists Fun.id
let all_series t = sorted_assoc t.series Fun.id

let merge a b =
  let m = create () in
  List.iter (fun (k, v) -> incr ~by:v m k) (counters a);
  List.iter (fun (k, v) -> incr ~by:v m k) (counters b);
  List.iter (fun (k, v) -> set_gauge m k v) (gauges a);
  List.iter
    (fun (k, v) ->
      match gauge m k with
      | Some w -> set_gauge m k (Float.max v w)
      | None -> set_gauge m k v)
    (gauges b);
  List.iter (fun (k, h) -> Hashtbl.replace m.hists k (Hist.merge h (Hist.create (Hist.kind h)))) (hists a);
  List.iter
    (fun (k, h) ->
      match find_hist m k with
      | Some g -> Hashtbl.replace m.hists k (Hist.merge g h)
      | None -> Hashtbl.replace m.hists k (Hist.merge h (Hist.create (Hist.kind h))))
    (hists b);
  List.iter
    (fun (k, s) -> Hashtbl.replace m.series k (Series.merge s (Series.create ~window:(Series.window s))))
    (all_series a);
  List.iter
    (fun (k, s) ->
      match find_series m k with
      | Some r -> Hashtbl.replace m.series k (Series.merge r s)
      | None ->
        Hashtbl.replace m.series k
          (Series.merge s (Series.create ~window:(Series.window s))))
    (all_series b);
  m

let equal a b =
  counters a = counters b
  && gauges a = gauges b
  && (let ha = hists a and hb = hists b in
      List.length ha = List.length hb
      && List.for_all2
           (fun (ka, va) (kb, vb) -> ka = kb && Hist.equal va vb)
           ha hb)
  &&
  let sa = all_series a and sb = all_series b in
  List.length sa = List.length sb
  && List.for_all2
       (fun (ka, va) (kb, vb) -> ka = kb && Series.equal va vb)
       sa sb

(* %.17g round-trips every float exactly, keeping the rendering
   injective (and hence byte-comparable) on gauge values. *)
let float_str v = Printf.sprintf "%.17g" v

let to_string t =
  String.concat "\n"
    (List.concat
       [
         List.map (fun (k, v) -> Printf.sprintf "counter %s %d" k v) (counters t);
         List.map
           (fun (k, v) -> Printf.sprintf "gauge %s %s" k (float_str v))
           (gauges t);
         List.map
           (fun (k, h) -> Printf.sprintf "hist %s %s" k (Hist.to_string h))
           (hists t);
         List.map
           (fun (k, s) -> Printf.sprintf "series %s %s" k (Series.to_string s))
           (all_series t);
       ])

let obj fields =
  "{" ^ String.concat "," fields ^ "}"

let to_json t =
  obj
    [
      Printf.sprintf {|"counters":%s|}
        (obj
           (List.map
              (fun (k, v) -> Printf.sprintf {|"%s":%d|} (Json.escape k) v)
              (counters t)));
      Printf.sprintf {|"gauges":%s|}
        (obj
           (List.map
              (fun (k, v) ->
                Printf.sprintf {|"%s":%s|} (Json.escape k) (float_str v))
              (gauges t)));
      Printf.sprintf {|"hists":%s|}
        (obj
           (List.map
              (fun (k, h) ->
                Printf.sprintf {|"%s":%s|} (Json.escape k) (Hist.to_json h))
              (hists t)));
      Printf.sprintf {|"series":%s|}
        (obj
           (List.map
              (fun (k, s) ->
                Printf.sprintf {|"%s":%s|} (Json.escape k) (Series.to_json s))
              (all_series t)));
    ]

(* --- OpenMetrics / Prometheus text exposition --------------------------- *)

(* Metric names admit [a-zA-Z0-9_:] only; anything else (dots, dashes,
   braces from ad-hoc labels) becomes '_'. Every family is prefixed
   "sdiq_" so a scrape of several exporters can't collide. *)
let om_name name =
  let b = Bytes.of_string ("sdiq_" ^ name) in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  Bytes.to_string b

(* Inclusive upper bound of bucket [i] (the Prometheus `le` label);
   None marks the clamping last bucket, rendered "+Inf". Observations
   are integers, so Linear bucket i = [i*w, (i+1)*w) has le = (i+1)*w-1
   and Log2 bucket i>=1 = [2^(i-1), 2^i) has le = 2^i - 1. *)
let bucket_le kind i =
  match kind with
  | Hist.Linear { width; buckets } ->
    if i >= buckets - 1 then None else Some (((i + 1) * width) - 1)
  | Hist.Log2 { buckets } ->
    if i >= buckets - 1 then None
    else if i = 0 then Some 0
    else Some ((1 lsl i) - 1)

(* Sanitisation is lossy ("a.b" and "a_b" both become sdiq_a_b), a name
   can live in more than one table, and counters/histograms also emit
   derived sample names (_total, _bucket, _sum, _count) that a plain
   gauge name could shadow. promtool rejects any duplicate family or
   sample name, so each family claims its full name set — base plus
   derived — from one registry-wide pool, and a clash appends _2, _3, …
   until the whole set is free. Rendering order (counters, gauges,
   histograms, series; name-sorted within each) keeps the suffixing
   deterministic, and collision-free registries render unchanged. *)
let claim used base derived =
  let rec go i =
    let cand = if i = 0 then base else Printf.sprintf "%s_%d" base (i + 1) in
    let names = cand :: List.map (fun d -> cand ^ d) derived in
    if List.exists (Hashtbl.mem used) names then go (i + 1)
    else begin
      List.iter (fun n -> Hashtbl.replace used n ()) names;
      cand
    end
  in
  go 0

let to_openmetrics t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let used = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      let n = claim used (om_name k) [ "_total" ] in
      line "# TYPE %s counter" n;
      line "%s_total %d" n v)
    (counters t);
  List.iter
    (fun (k, v) ->
      let n = claim used (om_name k) [] in
      line "# TYPE %s gauge" n;
      line "%s %s" n (float_str v))
    (gauges t);
  List.iter
    (fun (k, h) ->
      let n = claim used (om_name k) [ "_bucket"; "_sum"; "_count" ] in
      line "# TYPE %s histogram" n;
      let kind = Hist.kind h in
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          match bucket_le kind i with
          | Some le -> line "%s_bucket{le=\"%d\"} %d" n le !cum
          | None -> line "%s_bucket{le=\"+Inf\"} %d" n !cum)
        (Hist.buckets h);
      line "%s_sum %d" n (Hist.sum h);
      line "%s_count %d" n (Hist.count h))
    (hists t);
  List.iter
    (fun (k, s) ->
      let n = claim used (om_name k) [] in
      line "# TYPE %s gauge" n;
      let w = Series.window s in
      Array.iteri
        (fun i v -> line "%s{cell=\"%d\",window=\"%d\"} %d" n i w v)
        (Series.values s))
    (all_series t);
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
