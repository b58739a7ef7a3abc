(** Aggregation helpers shared by the multi-seed experiment sweeps and
    the declarative matrix driver (lib/scenario, DESIGN.md §12).

    {!mean} folds left from [0.0] exactly as {!Basalt_sim.Sweep.aggregate}
    does, so a matrix metric and a Sweep aggregate of the same runs agree
    bit for bit. *)

val mean : ('a -> float) -> 'a list -> float
(** [mean f xs] is the arithmetic mean of [f] over [xs] ([nan] on the
    empty list). *)

val sum : ('a -> int) -> 'a list -> int
(** [sum f xs] totals [f] over [xs]. *)

val median_opt : float option list -> float option
(** [median_opt times] applies the sweeps' majority rule: [None] unless
    more than half of the entries are [Some], otherwise the median of
    the present values (upper median for even counts). *)

val chunks : int -> 'a list -> 'a list list
(** [chunks k xs] splits [xs] into consecutive groups of exactly [k],
    preserving order — the regrouping step after a flat
    {!Basalt_parallel.Pool.map} over a condition × seed batch.
    @raise Invalid_argument if [k <= 0] or [k] does not divide the
    length of [xs]. *)
