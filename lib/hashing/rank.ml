(* --- Mixers ---

   The rank functions' integer mixers live here, next to the batch
   kernel that evaluates them: the dev build profile compiles with
   [-opaque], which stops every cross-module inlining, so a mixer defined
   in another module would cost a full call per rank evaluation. *)

let fmix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL) in
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L) in
  Int64.(logxor z (shift_right_logical z 33))

(* Native-int variant of the SplitMix64 finalizer.  Multiplication wraps
   modulo 2^63 on 64-bit OCaml, which degrades the top bits slightly; the
   final [land max_int] keeps the result non-negative and the statistical
   tests in the test suite check the distribution is still uniform enough
   for ranking. *)
let[@inline] mix63 x =
  let x = (x lxor (x lsr 30)) * 0x5851F42D4C957F2D in
  let x = (x lxor (x lsr 27)) * 0x14057B7EF767814F in
  (x lxor (x lsr 31)) land max_int

let[@inline] combine63 seed x = mix63 (seed lxor mix63 x)

(* The keyed variant chains one extra finalizer round over the secret
   key, so the seed→rank map differs per key: an adversary who cannot
   read the key cannot precompute low-ranking identifiers against it,
   yet the cost stays within one mix63 of the unkeyed path. *)
let keyed63 ~key seed x = mix63 (key lxor mix63 (seed lxor mix63 x))

let fnv1a64 s =
  String.fold_left
    (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001B3L)
    0xCBF29CE484222325L s

(* --- Seeded rank functions --- *)

type backend =
  | Cheap
  | Keyed_cheap of int
  | Siphash of Siphash.key
  | Prefix_diverse of { prefix_of : int -> int }

(* A seed is pre-digested per backend at draw time: the SipHash variant
   absorbs the key and the seed word into a resumable midstate once, so
   every rank evaluation only finishes the identifier block.  Rank
   *values* are exactly those of the uncached formulas — the caching
   moves work, never changes results (the test suite pins both the
   reference vectors and the cached = uncached equality). *)
type seed =
  | S_cheap of int
  | S_keyed of { key : int; value : int }
  | S_sip of { value : int; ms : Siphash.midstate }
  | S_prefix of { prefix_of : int -> int; value : int }

let make backend value =
  match backend with
  | Cheap -> S_cheap value
  | Keyed_cheap key -> S_keyed { key; value }
  | Siphash key ->
      S_sip { value; ms = Siphash.prepare_int64 key (Int64.of_int value) }
  | Prefix_diverse { prefix_of } -> S_prefix { prefix_of; value }

let fresh backend rng = make backend (Basalt_prng.Rng.bits rng)
let of_int backend value = make backend value

let seed_value = function
  | S_cheap value
  | S_keyed { value; _ }
  | S_sip { value; _ }
  | S_prefix { value; _ } ->
      value

(* Lexicographic (prefix-rank, id-rank) pair packed into one non-negative
   native integer: 30 bits of prefix rank above 32 bits of id rank. *)
let[@inline] composite ~prefix_rank ~id_rank =
  ((prefix_rank land 0x3FFFFFFF) lsl 32) lor (id_rank land 0xFFFFFFFF)

let sip_rank ms id =
  Int64.to_int (Siphash.finish_int64_pair ms (Int64.of_int id)) land max_int

(* [digest id] is the identifier-side half of the cheap mixers, hoisted
   out of the per-slot loop; backends that hash the identifier whole
   (SipHash) ignore it. *)
let digest id = mix63 id

let rank seed id =
  match seed with
  | S_cheap value -> mix63 (value lxor mix63 id)
  | S_keyed { key; value } -> keyed63 ~key value id
  | S_sip { ms; _ } -> sip_rank ms id
  | S_prefix { prefix_of; value } ->
      composite
        ~prefix_rank:(combine63 value (prefix_of id))
        ~id_rank:(mix63 (value lxor mix63 id))

(* --- The batch kernel ---

   One call scans every eligible candidate against one slot's seed.  The
   backend [match] runs once per call, outside the candidate loop, and
   each arm's loop body is straight-line code over the mixers above,
   inlined here because they are defined in this module.  [best] and
   [holder] are local mutable variables (never boxed), written back to
   the slot arrays once at the end; the install step is repeated in each
   arm because a shared local function would capture, and so box, them. *)
let offer_slot seed ~(ids : int array) ~(digests : int array)
    ~(since : int array) ~len ~(stamp : int) ~(ranks : int array)
    ~(holders : int array) i =
  let best = ref (Array.unsafe_get ranks i) in
  let holder = ref (Array.unsafe_get holders i) in
  let evals = ref 0 in
  (match seed with
  | S_cheap value ->
      for j = 0 to len - 1 do
        if stamp > Array.unsafe_get since j then begin
          incr evals;
          let r = mix63 (value lxor Array.unsafe_get digests j) in
          if r < !best || !holder < 0 then begin
            best := r;
            holder := Array.unsafe_get ids j
          end
        end
      done
  | S_keyed { key; value } ->
      for j = 0 to len - 1 do
        if stamp > Array.unsafe_get since j then begin
          incr evals;
          let r = mix63 (key lxor mix63 (value lxor Array.unsafe_get digests j)) in
          if r < !best || !holder < 0 then begin
            best := r;
            holder := Array.unsafe_get ids j
          end
        end
      done
  | S_sip { ms; _ } ->
      for j = 0 to len - 1 do
        if stamp > Array.unsafe_get since j then begin
          incr evals;
          let r = sip_rank ms (Array.unsafe_get ids j) in
          if r < !best || !holder < 0 then begin
            best := r;
            holder := Array.unsafe_get ids j
          end
        end
      done
  | S_prefix { prefix_of; value } ->
      for j = 0 to len - 1 do
        if stamp > Array.unsafe_get since j then begin
          incr evals;
          let id = Array.unsafe_get ids j in
          let r =
            composite
              ~prefix_rank:(combine63 value (prefix_of id))
              ~id_rank:(mix63 (value lxor Array.unsafe_get digests j))
          in
          if r < !best || !holder < 0 then begin
            best := r;
            holder := id
          end
        end
      done);
  Array.unsafe_set ranks i !best;
  Array.unsafe_set holders i !holder;
  !evals

let pp ppf s = Format.fprintf ppf "seed:%#x" (seed_value s)
