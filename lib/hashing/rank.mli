(** Seeded rank functions (min-wise independent permutations), the
    integer mixers they are built from, and the batch kernel that
    evaluates them for a sampler bank.

    Basalt's stubborn chaotic search defines a node's target [i]-th
    neighbor as the peer [p] minimising [rank_seed[i](p)], where
    [rank_seed(p) = h(<seed, p>)] for a uniform hash function [h]
    (paper §2.3).  Drawing a fresh random [seed] re-randomises the
    permutation of node identifiers, realising a uniform sample of the
    identifiers subsequently offered to the slot.

    Four backends are provided:
    - {!Cheap}: a native-integer mixer — the simulator's default, fast
      enough to evaluate ~10⁹ ranks per experiment;
    - {!Keyed_cheap}: the same mixer chained over a secret native-int
      key ({!keyed63}) — a documented fast path for
      adversarial-model simulations at scale, where per-key rank
      unpredictability matters but cryptographic strength does not;
    - {!Siphash}: a keyed PRF — what a real deployment would use so that
      an adversary cannot precompute low-ranking identifiers.  Seeds
      precompute a {!Siphash.midstate} at draw time, so each evaluation
      only finishes the identifier block;
    - {!Prefix_diverse}: the §6 "specially crafted rank function":
      identifiers are ranked first by a hash of their {e address prefix}
      and only then by a hash of the identifier itself, so a slot's
      target is a uniformly random prefix (then a uniform member of it).
      An attacker concentrated in a few prefixes — the institutional /
      Sybil setting of HAPS — is thereby capped near its {e prefix}
      share instead of its identifier share.  The trade-off: sampling is
      uniform over prefixes, not over nodes.

    Every cached or batched evaluation path returns bit-identical rank
    values to the plain formula — the differential suites in
    [test_hashing.ml], [test_basalt.ml] and [test_brahms.ml] pin the
    equality.  The test suite also checks that the cheap and SipHash
    backends produce statistically indistinguishable sampling behavior;
    the bench harness measures the speed gap (the hash-function ablation
    of DESIGN.md §4). *)

type backend =
  | Cheap
  | Keyed_cheap of int
      (** The secret key (any native int, e.g. [Rng.bits]); ranks are
          {!keyed63}[ ~key seed id].  Not cryptographic — a
          simulation-scale stand-in for {!Siphash}. *)
  | Siphash of Siphash.key
  | Prefix_diverse of { prefix_of : int -> int }
      (** [prefix_of id] maps an identifier to its address prefix (e.g.
          an IP /24); prefixes must be non-negative. *)

type seed
(** One random ranking function, i.e. one slot's seed, pre-digested for
    its backend: SipHash seeds carry the resumable key+seed midstate
    absorbed at draw time. *)

val fresh : backend -> Basalt_prng.Rng.t -> seed
(** [fresh backend rng] draws a new uniformly random seed (one
    [Rng.bits] draw, identically for every backend — swapping backends
    never perturbs the PRNG stream shape). *)

val of_int : backend -> int -> seed
(** [of_int backend v] builds a deterministic seed (for tests). *)

val rank : seed -> int -> int
(** [rank seed id] is a non-negative integer rank of node [id] under
    [seed]; lower ranks are better matches.  Deterministic in
    [(seed, id)]. *)

val digest : int -> int
(** [digest id] is the identifier-side half of the cheap mixers
    ([mix63 id]), computed once per candidate and kept unboxed in an
    [int array] for {!offer_slot}. *)

val offer_slot :
  seed ->
  ids:int array ->
  digests:int array ->
  since:int array ->
  len:int ->
  stamp:int ->
  ranks:int array ->
  holders:int array ->
  int ->
  int
(** [offer_slot seed ~ids ~digests ~since ~len ~stamp ~ranks ~holders i]
    offers candidates [ids.(0 .. len-1)] to slot [i], whose seed is
    [seed], and returns how many ranks it evaluated.  Candidate [j] is
    evaluated only if [stamp > since.(j)] (the slot's seed is newer than
    the candidate's last offer); it is installed — [ranks.(i)] and
    [holders.(i)] overwritten — if the slot is empty ([holders.(i) < 0])
    or its rank is strictly below [ranks.(i)].  [digests.(j)] must equal
    [digest ids.(j)].  Ranks are exactly {!rank}[ seed ids.(j)].

    This is the sampler bank's hot loop.  The backend is dispatched once
    per call, and the mixers are inlined into the candidate loop because
    they are defined in this module — the reason the kernel lives here
    rather than next to the slot arrays: builds with [-opaque] (dune's
    dev profile) inline nothing across modules.  No bounds are checked:
    callers guarantee [len] fits every candidate array and [i] every
    slot array. *)

val seed_value : seed -> int
(** [seed_value s] exposes the raw seed integer (for diagnostics). *)

val pp : Format.formatter -> seed -> unit
(** Prints the seed value in hex. *)

(** {1 Mixers} *)

val mix63 : int -> int
(** [mix63 x] mixes a native OCaml integer and returns a non-negative
    native integer (a native-int SplitMix64 finalizer).  This is the
    fastest rank primitive: no boxing. *)

val combine63 : int -> int -> int
(** [combine63 seed x] is a non-negative native-integer hash of the pair
    [(seed, x)], suitable for [rank_seed(p) = h(<seed, p>)]. *)

val keyed63 : key:int -> int -> int -> int
(** [keyed63 ~key seed x] is {!combine63} strengthened with a secret
    [key]: a non-negative native-integer hash of [(key, seed, x)] costing
    one extra {!mix63} round.  The statistical backbone of the
    [Keyed_cheap] backend — keyed against rank precomputation but
    {e not} cryptographic; deployments facing adaptive adversaries keep
    SipHash. *)

val fmix64 : int64 -> int64
(** [fmix64 z] is the MurmurHash3 64-bit finalizer.  (The SplitMix64
    finalizer is {!Basalt_prng.Splitmix64.mix}.) *)

val fnv1a64 : string -> int64
(** [fnv1a64 s] is the FNV-1a 64-bit hash of [s] (used for deriving stable
    seeds from textual labels, e.g. property names in [lib/check]). *)
