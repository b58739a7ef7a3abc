(** A bank of min-wise samplers: the slot state shared by Basalt's view
    and Brahms's sampler vector 𝒮.

    Each slot pairs a random ranking seed with the best-ranked identifier
    offered since the seed was drawn (Fig. 1 of the paper; Brahms's
    min-wise samplers are the same object).  The slots are stored as
    flat struct-of-arrays state, and a batch of candidates is offered to
    every slot in one slot-major pass: per slot, one call of
    {!Basalt_hashing.Rank.offer_slot} scans the whole batch with the
    backend dispatched once (DESIGN.md §4).

    Holders and ranks are bit-identical to offering every candidate to
    every slot one at a time in batch order (the differential oracles in
    [test_basalt.ml] and [test_brahms.ml] pin this). *)

type t
(** A mutable bank of slots. *)

val create :
  ?seen_cache:bool ->
  ?exclude:Basalt_proto.Node_id.t ->
  Basalt_hashing.Rank.backend ->
  Basalt_prng.Rng.t ->
  slots:int ->
  t
(** [create backend rng ~slots] is a bank of [slots] empty slots whose
    seeds are drawn from [rng] in slot order (one [Rng.bits] draw each).

    [exclude] is an identifier that is never installed (the node itself).
    [seen_cache] (default [false]) remembers, per candidate, the clock
    value of its last offer, so a candidate is ranked once per {e seed}
    rather than once per offer: a re-offer is skipped for every slot
    whose seed predates it, since it could never install there.  That
    also drops duplicates within a batch.  The cache changes the number
    of rank evaluations, never a holder or a rank. *)

val length : t -> int
(** [length t] is the number of slots. *)

val offer : t -> Basalt_proto.Node_id.t array -> int
(** [offer t ids] offers every identifier of [ids] to every slot: a slot
    installs a candidate if it is empty or the candidate ranks strictly
    lower than its holder (Alg. 1 lines 20–23).  Returns the number of
    rank evaluations performed. *)

val reset : t -> Basalt_prng.Rng.t -> int -> unit
(** [reset t rng i] draws a fresh seed for slot [i] (one [Rng.bits]
    draw) and empties it (Alg. 1 line 18). *)

val prune_seen : t -> unit
(** [prune_seen t] sweeps seen-cache entries older than every slot's
    seed once the cache outgrows [16 × length + 64] entries; such entries
    carry no information.  A no-op without the cache. *)

val peer : t -> int -> Basalt_proto.Node_id.t option
(** [peer t i] is slot [i]'s holder, [None] while it is empty. *)

val rank : t -> int -> int option
(** [rank t i] is the rank of slot [i]'s holder under the slot's seed,
    [None] while it is empty. *)

val peers : t -> Basalt_proto.Node_id.t array
(** [peers t] is the holders of the non-empty slots, in slot order
    (duplicates possible). *)
