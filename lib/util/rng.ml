(* The 64-bit state in eight flat bytes: a draw stores it unboxed (a
   mutable [int64] field would box it on every draw). *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let[@inline] mix z n = Int64.logxor z (Int64.shift_right_logical z n)

(* Inlined into [int], [float] and [bool], so a draw returns its value
   unboxed. *)
let[@inline] next64 t =
  let z = Int64.add (get64 t 0) 0x9E3779B97F4A7C15L in
  set64 t 0 z;
  let z = Int64.mul (mix z 30) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (mix z 27) 0x94D049BB133111EBL in
  mix z 31

let split t = create (next64 t)

(* Same stream position as [t], advancing independently from here on. *)
let copy = Bytes.copy

let reseed t seed = set64 t 0 seed

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Masking to 62 bits keeps the value a non-negative OCaml int. *)
  let v = Int64.to_int (Int64.logand (next64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  v mod bound

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
