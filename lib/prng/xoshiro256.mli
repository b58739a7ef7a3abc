(** Xoshiro256++ pseudo-random number generator.

    The general-purpose generator of Blackman & Vigna (2019), with 256 bits
    of state and period [2^256 - 1].  State is initialised from a
    {!Splitmix64} stream, as recommended by the authors. *)

type t
(** Mutable generator state: the four 64-bit words, stored unboxed. *)

val create : int64 -> t
(** [create seed] seeds the four state words from a SplitMix64 stream
    started at [seed]. *)

val of_state : int64 -> int64 -> int64 -> int64 -> t
(** [of_state s0 s1 s2 s3] builds a generator from an explicit state.
    @raise Invalid_argument if all four words are zero (the one forbidden
    state). *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val next : t -> int64
(** [next t] advances the state and returns the next 64-bit output. *)

val next_int : t -> int
(** [next_int t] is [Int64.to_int (next t)] — the output's low 63 bits —
    without boxing: the allocation-free draw behind {!Rng.bits},
    {!Rng.int} and {!Rng.bool}. *)

val next_top : t -> int -> int
(** [next_top t k] advances the state like {!next} and returns the
    output's [k] most significant bits as a non-negative native integer,
    without boxing ([1 <= k <= 62]). *)
