(* The state word lives unboxed in an 8-byte buffer: a draw reads and
   writes it through the 64-bit bytes primitives, so advancing the
   generator stores no boxed [int64] and allocates nothing. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let copy = Bytes.copy

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s
