(* Hand-rolled JSON: the repo has no JSON dependency by design
   (DESIGN.md §6), and the telemetry layer needs to *read back* what it
   writes — ledger records, trace documents, MIPS probes — not just
   print it. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

type state = { s : string; mutable pos : int }

let fail st msg = raise (Error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st ch =
  match peek st with
  | Some c when c = ch -> advance st
  | _ -> fail st (Printf.sprintf "expected %C" ch)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          (* Exactly four hex digits: [int_of_string] alone would also
             take a sign or an underscore. *)
          let code = ref 0 in
          for _ = 1 to 4 do
            let d =
              match peek st with
              | Some ('0' .. '9' as h) -> Char.code h - Char.code '0'
              | Some ('a' .. 'f' as h) -> Char.code h - Char.code 'a' + 10
              | Some ('A' .. 'F' as h) -> Char.code h - Char.code 'A' + 10
              | _ -> fail st "bad \\u escape"
            in
            advance st;
            code := (!code lsl 4) lor d
          done;
          let code = !code in
          (* Codepoints are re-encoded as UTF-8; surrogate pairs are
             left as two replacement sequences (the telemetry layer
             never emits them). *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
        | _ -> fail st "unknown escape"));
      go ()
    | Some c when Char.code c < 0x20 -> fail st "unescaped control character"
    | Some c ->
      advance st;
      Buffer.add_char b c;
      go ()
  in
  go ();
  Buffer.contents b

(* The RFC 8259 number grammar, scanned before [float_of_string] sees
   the text (OCaml's reader also takes [01], [1.], [.5] and [1.e5]): an
   optional minus; [0] or a digit string with no leading zero; an
   optional fraction and an optional signed exponent, each with at
   least one digit. *)
let parse_number st =
  let start = st.pos in
  let digit () = match peek st with Some '0' .. '9' -> true | _ -> false in
  let digits () =
    if not (digit ()) then fail st "expected a digit";
    while digit () do
      advance st
    done
  in
  if peek st = Some '-' then advance st;
  (match peek st with
  | Some '0' -> advance st
  | _ -> digits ());
  if peek st = Some '.' then begin
    advance st;
    digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    digits ()
  | _ -> ());
  float_of_string (String.sub st.s start (st.pos - start))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((k, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((k, v) :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let rec elems acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elems (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      Arr (elems [])
    end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st (Printf.sprintf "unexpected %C" c)

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos < String.length s then
      Result.Error
        (Printf.sprintf "trailing garbage at offset %d" st.pos)
    else Ok v
  | exception Error msg -> Result.Error msg

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool true -> "true"
  | Bool false -> "false"
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else if Float.is_finite f then Printf.sprintf "%.17g" f
    else "null" (* JSON has no NaN or infinity *)
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr vs -> "[" ^ String.concat "," (List.map to_string vs) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v) kvs)
    ^ "}"

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_float = function Num f -> Some f | _ -> None

(* [int_of_float] is unspecified outside the int range: 1e300 must not
   come back as some arbitrary int. *)
let to_int = function
  | Num f
    when Float.is_integer f
         && f >= Float.of_int min_int
         && f < -.Float.of_int min_int ->
    Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr vs -> Some vs | _ -> None
