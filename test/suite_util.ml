(* Tests for the utility library: RNG determinism, the domain pool and
   the JSON reader and printer. *)

open Sdiq_util

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let da = List.init 10 (fun _ -> Rng.next a) in
  let db = List.init 10 (fun _ -> Rng.next b) in
  Alcotest.(check bool) "different streams" true (da <> db)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  let va = Rng.next a in
  let vb = Rng.next b in
  Alcotest.(check int) "copy replays" va vb

let test_rng_bounds () =
  let t = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int t 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in t 5 9 in
    Alcotest.(check bool) "in inclusive range" true (v >= 5 && v <= 9)
  done

let test_rng_int_invalid () =
  let t = Rng.create 1 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int t 0))

let test_rng_chance_extremes () =
  let t = Rng.create 11 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Rng.chance t 1.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 always false" false (Rng.chance t 0.0)
  done

let test_rng_shuffle_permutes () =
  let t = Rng.create 5 in
  let arr = Array.init 20 (fun i -> i) in
  let orig = Array.copy arr in
  Rng.shuffle t arr;
  Alcotest.(check int) "same length" (Array.length orig) (Array.length arr);
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "same elements" true (sorted = orig)

let test_rng_uniformity () =
  (* Coarse sanity: each bucket of ten gets a plausible share. *)
  let t = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 10_000 in
  for _ = 1 to n do
    let v = Rng.int t 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d plausible (%d)" i c)
        true
        (c > n / 20 && c < n / 5))
    buckets

let test_mean_of () =
  Alcotest.(check (float 1e-9)) "mean of list" 2. (Stat.mean_of [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "mean of empty list" 0. (Stat.mean_of [])

(* --- Pool: the work-stealing domain pool -------------------------------- *)

exception Boom

let test_pool_empty () =
  let p = Pool.create ~domains:3 () in
  Alcotest.(check (array int)) "map of empty array" [||]
    (Pool.map_array p ~f:(fun x -> x) [||]);
  Alcotest.(check (list int)) "map of empty list" []
    (Pool.map_list p ~f:(fun x -> x) []);
  (* run of an empty task list is a no-op, not an error *)
  Pool.run p []

let test_pool_single_task () =
  let p = Pool.create ~domains:4 () in
  Alcotest.(check (array int)) "one task" [| 49 |]
    (Pool.map_array p ~f:(fun x -> x * x) [| 7 |]);
  let hit = ref false in
  Pool.run p [ (fun () -> hit := true) ];
  Alcotest.(check bool) "thunk ran" true !hit

let test_pool_many_tasks () =
  (* Tasks vastly outnumber domains; results must come back in order. *)
  let p = Pool.create ~domains:4 () in
  let n = 1_000 in
  let input = Array.init n (fun i -> i) in
  let out = Pool.map_array p ~f:(fun i -> (i * 2) + 1) input in
  Alcotest.(check int) "all results" n (Array.length out);
  Array.iteri
    (fun i v -> Alcotest.(check int) "ordered result" ((i * 2) + 1) v)
    out

let test_pool_exception_propagates () =
  let p = Pool.create ~domains:4 () in
  (match
     Pool.map_array p
       ~f:(fun i -> if i = 13 then raise Boom else i)
       (Array.init 100 (fun i -> i))
   with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom -> ());
  (* The pool survives a raising task: all domains were joined. *)
  Alcotest.(check (array int)) "pool still works" [| 1; 2; 3 |]
    (Pool.map_array p ~f:(fun x -> x + 1) [| 0; 1; 2 |])

let test_pool_sizes () =
  Alcotest.(check int) "explicit size" 7 (Pool.domains (Pool.create ~domains:7 ()));
  Alcotest.(check bool) "default size >= 1" true
    (Pool.domains (Pool.create ()) >= 1);
  match Pool.create ~domains:0 () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- JSON numbers ----------------------------------------------------- *)

let special_floats =
  [|
    nan; infinity; neg_infinity; 0.; -0.; 1e300; -1e300; max_float;
    -.max_float; min_float; 5e-324; 1e15; -1e15; 0.1; 4.611686018427387904e18;
    -4.611686018427387904e18; 4.6116860184273874e18; 9.2233720368547758e18;
  |]

let json_float_gen =
  QCheck.Gen.(
    frequency
      [
        (2, oneofa special_floats);
        (2, float);
        (1, map Float.of_int int);
        (1, map (fun e -> Float.ldexp 1. e) (int_range (-1074) 1023));
      ])

(* Finite numbers round-trip bit for bit, alone and inside a document;
   non-finite ones print as [null], which parses; [to_int] answers only
   inside the int range. *)
let prop_json_numbers =
  QCheck.Test.make ~count:1000 ~name:"json numbers round-trip"
    (QCheck.make ~print:(Printf.sprintf "%h") json_float_gen)
    (fun f ->
      let doc = Json.Obj [ ("x", Json.Arr [ Json.Num f ]) ] in
      let back = Json.parse (Json.to_string doc) in
      let same =
        match (Json.parse (Json.to_string (Json.Num f)), back) with
        | Ok (Json.Num g), Ok (Json.Obj [ ("x", Json.Arr [ Json.Num h ]) ]) ->
          Float.is_finite f
          && Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
          && Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float h)
        | Ok Json.Null, Ok (Json.Obj [ ("x", Json.Arr [ Json.Null ]) ]) ->
          not (Float.is_finite f)
        | _ -> false
      in
      let in_range = f >= -0x1p62 && f < 0x1p62 in
      let int_ok =
        match Json.to_int (Json.Num f) with
        | Some n -> Float.is_integer f && in_range && Float.of_int n = f
        | None -> not (Float.is_integer f && in_range)
      in
      same && int_ok)

let test_json_non_finite () =
  List.iter
    (fun (f, name) ->
      Alcotest.(check string) (name ^ " prints null") "null"
        (Json.to_string (Json.Num f));
      Alcotest.(check bool) (name ^ " parses back") true
        (Json.parse (Json.to_string (Json.Num f)) = Ok Json.Null))
    [ (nan, "nan"); (infinity, "inf"); (neg_infinity, "-inf") ];
  Alcotest.(check (option int)) "1e300 is no int" None
    (Json.to_int (Json.Num 1e300));
  Alcotest.(check (option int)) "2^62 is no int" None
    (Json.to_int (Json.Num 0x1p62));
  Alcotest.(check (option int)) "min_int is an int" (Some min_int)
    (Json.to_int (Json.Num (Float.of_int min_int)));
  Alcotest.(check (option int)) "42" (Some 42) (Json.to_int (Json.Num 42.))

(* --- JSON text: strict grammar and fuzzing --------------------------- *)

(* Each input is one form RFC 8259 forbids but a lenient reader takes:
   [int_of_string] on a [\u] escape's hex and [float_of_string] on a
   number's text. *)
let test_json_rejects_non_json () =
  List.iter
    (fun (text, why) ->
      match Json.parse text with
      | Ok v -> Alcotest.failf "%S (%s) parsed as %s" text why (Json.to_string v)
      | Error _ -> ())
    [
      ({|"\u0_41"|}, "underscore in a \\u escape");
      ({|"\u+041"|}, "sign in a \\u escape");
      ({|"\u004"|}, "three-digit \\u escape");
      ("01", "leading zero");
      ("-01", "negative leading zero");
      ("1.", "empty fraction");
      ("-.5", "empty integer part");
      ("1.e5", "empty fraction before an exponent");
      ("1e", "empty exponent");
      ("-", "lone minus");
      ("+1", "plus sign");
      ("\"a\tb\"", "raw control character in a string");
    ];
  List.iter
    (fun (text, want) ->
      Alcotest.(check bool) text true (Json.parse text = Ok want))
    [
      ({|"\u0041\u00e9"|}, Json.Str "A\xc3\xa9");
      ("0", Json.Num 0.);
      ("-0.5e-3", Json.Num (-0.5e-3));
      ("10E+2", Json.Num 1000.);
      ("[1,-2.25]", Json.Arr [ Json.Num 1.; Json.Num (-2.25) ]);
    ]

(* Strings over every byte, weighted toward the ones the printer must
   escape. *)
let json_string_gen =
  QCheck.Gen.(
    string_size (int_bound 8)
      ~gen:
        (frequency
           [
             (3, oneofl [ '"'; '\\'; '\n'; '\t'; '\000'; '\031'; '/' ]);
             (3, printable);
             (1, char);
           ]))

let json_value_gen =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return Json.Null);
                 (1, map (fun b -> Json.Bool b) bool);
                 (* [to_string] prints non-finite numbers as [null]:
                    they cannot come back as themselves *)
                 ( 2,
                   map
                     (fun f -> Json.Num (if Float.is_finite f then f else 0.))
                     json_float_gen );
                 (2, map (fun s -> Json.Str s) json_string_gen);
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map
                     (fun l -> Json.Arr l)
                     (list_size (int_bound 4) (self (n - 1))) );
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_bound 4)
                        (pair json_string_gen (self (n - 1)))) );
               ]))

let prop_json_round_trip =
  QCheck.Test.make ~count:500 ~name:"json parse (to_string v) = Ok v"
    (QCheck.make ~print:Json.to_string json_value_gen)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let parses_or_errors text =
  match Json.parse text with Ok _ | Error _ -> true

let prop_json_total_bytes =
  QCheck.Test.make ~count:1000 ~name:"json parse total on arbitrary bytes"
    QCheck.(string_gen_of_size Gen.(int_bound 24) Gen.char)
    parses_or_errors

(* One-byte insertions, deletions and replacements of printed
   documents: text that is almost JSON reaches the deep error paths. *)
let prop_json_total_mutations =
  let gen =
    QCheck.Gen.(
      quad json_value_gen (int_bound 2) nat
        (oneof
           [
             char;
             oneofl [ '"'; '\\'; 'u'; '-'; '.'; 'e'; '0'; ','; ']'; '}' ];
           ]))
  in
  let mutate (v, kind, at, c) =
    let s = Json.to_string v in
    let i = at mod (String.length s + 1) in
    let before = String.sub s 0 i in
    let after = String.sub s i (String.length s - i) in
    let rest =
      if i = String.length s then ""
      else String.sub s (i + 1) (String.length s - i - 1)
    in
    match kind with
    | 0 -> before ^ String.make 1 c ^ after
    | 1 -> before ^ rest
    | _ -> before ^ String.make 1 c ^ rest
  in
  QCheck.Test.make ~count:1000 ~name:"json parse total on mutated documents"
    (QCheck.make ~print:(fun m -> Printf.sprintf "%S" (mutate m)) gen)
    (fun m -> parses_or_errors (mutate m))

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng copy independent" `Quick test_rng_copy_independent;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng invalid bound" `Quick test_rng_int_invalid;
    Alcotest.test_case "rng chance extremes" `Quick test_rng_chance_extremes;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "mean of list" `Quick test_mean_of;
    Alcotest.test_case "pool: empty task list" `Quick test_pool_empty;
    Alcotest.test_case "pool: single task" `Quick test_pool_single_task;
    Alcotest.test_case "pool: tasks >> domains" `Quick test_pool_many_tasks;
    Alcotest.test_case "pool: exception propagates, pool survives" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool: sizing" `Quick test_pool_sizes;
    Alcotest.test_case "json non-finite and huge numbers" `Quick
      test_json_non_finite;
    QCheck_alcotest.to_alcotest prop_json_numbers;
    Alcotest.test_case "json rejects non-JSON text" `Quick
      test_json_rejects_non_json;
    QCheck_alcotest.to_alcotest prop_json_round_trip;
    QCheck_alcotest.to_alcotest prop_json_total_bytes;
    QCheck_alcotest.to_alcotest prop_json_total_mutations;
  ]
