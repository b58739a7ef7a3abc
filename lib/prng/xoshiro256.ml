(* The four state words live unboxed in one 32-byte buffer, read and
   written through the 64-bit bytes primitives.  A draw therefore keeps
   every intermediate in registers: it stores no boxed [int64] into a
   long-lived record (no allocation, no write barrier).  [next_int]
   and [next_top] return the output as a native int for the same reason —
   a boxed [int64] result would cost an allocation per draw. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  t

let of_state s0 s1 s2 s3 =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state";
  make s0 s1 s2 s3

let create seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* SplitMix64 outputs are never all zero for distinct draws in practice,
     but guard against the forbidden state anyway. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then make 1L 0L 0L 0L
  else make s0 s1 s2 s3

let copy = Bytes.copy

(* [step] is inlined into each entry point, so the output stays an
   unboxed register value until the entry point converts it. *)
let[@inline] step t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tt = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set64 t 8 (Int64.logxor s1 s2);
  set64 t 0 (Int64.logxor s0 s3);
  set64 t 16 (Int64.logxor s2 tt);
  set64 t 24 (rotl s3 45);
  result

let next t = step t
let next_int t = Int64.to_int (step t)
let next_top t k = Int64.to_int (Int64.shift_right_logical (step t) (64 - k))
