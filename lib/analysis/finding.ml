(* Structured findings produced by the static-analysis passes. *)

type severity =
  | Error
  | Warning
  | Info

type t = {
  severity : severity;
  pass : string;
  proc : string;
  addr : int option;
  blocks : int list;
  message : string;
}

let make ?(proc = "") ?addr ?(blocks = []) severity ~pass message =
  { severity; pass; proc; addr; blocks; message }

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let c = Int.compare (rank a.severity) (rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.proc b.proc in
    if c <> 0 then c else Stdlib.compare (a.addr, a.pass) (b.addr, b.pass)

let count s l = List.length (List.filter (fun f -> f.severity = s) l)
let errors l = count Error l
let warnings l = count Warning l
let infos l = count Info l
let is_clean l = errors l = 0

let pp ppf t =
  Fmt.pf ppf "%-7s %-18s %s%a%a: %s" (severity_name t.severity) t.pass
    (if t.proc = "" then "<program>" else t.proc)
    (fun ppf -> function Some a -> Fmt.pf ppf "@@%d" a | None -> ())
    t.addr
    (fun ppf -> function
      | [] -> ()
      | bs -> Fmt.pf ppf " [%a]" Fmt.(list ~sep:(any "->") (fmt "B%d")) bs)
    t.blocks t.message

(* Hand-rolled JSON: the schema is flat and the repo carries no JSON
   dependency. Strings escape the two characters that can occur in
   messages (quotes and backslashes) plus control characters. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json ?(extra = []) t =
  Fmt.str
    "{%s\"severity\":\"%s\",\"pass\":\"%s\",\"proc\":\"%s\",\"addr\":%s,\"blocks\":[%a],\"message\":\"%s\"}"
    (String.concat ""
       (List.map
          (fun (k, v) -> Fmt.str "\"%s\":\"%s\"," (json_escape k) (json_escape v))
          extra))
    (severity_name t.severity) (json_escape t.pass) (json_escape t.proc)
    (match t.addr with Some a -> string_of_int a | None -> "null")
    Fmt.(list ~sep:(any ",") int)
    t.blocks (json_escape t.message)

let pp_summary ppf l =
  Fmt.pf ppf "%d errors, %d warnings, %d infos" (errors l) (warnings l)
    (infos l)
