(* Windowed time series over cycles, geometrically grown. *)

type t = {
  window : int;
  mutable data : int array;
  mutable used : int; (* cells written so far *)
}

let create ~window =
  if window <= 0 then invalid_arg "Series.create: window must be positive";
  { window; data = Array.make 16 0; used = 0 }

let window t = t.window

let ensure t n =
  if n > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap 0 in
    Array.blit t.data 0 data 0 t.used;
    t.data <- data
  end

let observe t ~cycle v =
  if cycle < 0 then invalid_arg "Series.observe: negative cycle";
  let i = cycle / t.window in
  ensure t (i + 1);
  t.data.(i) <- t.data.(i) + v;
  if i + 1 > t.used then t.used <- i + 1

let length t = t.used
let get t i = if i >= 0 && i < t.used then t.data.(i) else 0

let total t =
  let s = ref 0 in
  for i = 0 to t.used - 1 do
    s := !s + t.data.(i)
  done;
  !s

let values t = Array.sub t.data 0 t.used

let merge a b =
  if a.window <> b.window then invalid_arg "Series.merge: window mismatch";
  let used = max a.used b.used in
  let data = Array.make (max 16 used) 0 in
  for i = 0 to used - 1 do
    data.(i) <- get a i + get b i
  done;
  { window = a.window; data; used }

let equal a b = a.window = b.window && values a = values b

let to_string t =
  Printf.sprintf "window=%d|%s|total=%d" t.window
    (String.concat ","
       (Array.to_list (Array.map string_of_int (values t))))
    (total t)

let to_json t =
  Printf.sprintf {|{"window":%d,"values":[%s],"total":%d}|} t.window
    (String.concat ","
       (Array.to_list (Array.map string_of_int (values t))))
    (total t)
