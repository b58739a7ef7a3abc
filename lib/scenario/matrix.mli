(** The generic scenario-matrix driver (DESIGN.md §12).

    Expands a validated {!Spec.t} into the cross product of its axes
    (file order, pivot innermost, seeds innermost of all), resolves
    every cell against the {!Basalt_experiments.Scale} presets into a
    {!Basalt_sim.Scenario.t}, runs the flat task list — through
    {!Basalt_experiments.Gossip_app} when the spec mounts an app —
    over an optional {!Basalt_parallel.Pool}, and renders one table
    row per non-pivot cell with the pivot's entries as metric columns.
    [Pool.map] preserves task order, so tables, CSVs and merged traces
    are bit-identical at any [-j N].

    Aggregation goes through {!Basalt_experiments.Agg}.  The committed
    files under [scenarios/] are the definitions of the sweep-shaped
    [repro] targets; [test/test_cli.ml] pins their quick-scale tables
    byte-for-byte. *)

type run = {
  result : Basalt_sim.Runner.result;
  gossip : Basalt_experiments.Gossip_app.summary option;
      (** Present exactly when the spec mounts [(app (gossip ...))]. *)
}

type task = {
  labels : (string * string) list;
      (** Matrix coordinates: (axis name, entry label), in axis order. *)
  trace_extra : (string * Basalt_obs.Obs.value) list;
      (** Trace tags from the axes' [trace-key] attributes. *)
  scenario : Basalt_sim.Scenario.t;
}

val tasks : ?scale:Basalt_experiments.Scale.t -> Spec.t -> task list
(** [tasks spec] is the expanded cell × seed list in deterministic
    order: axes nest in file order, seeds innermost. *)

val run_tasks :
  ?scale:Basalt_experiments.Scale.t ->
  ?trace:out_channel ->
  ?pool:Basalt_parallel.Pool.t ->
  Spec.t ->
  task list * run list
(** [run_tasks spec] executes every task (in task order, whatever the
    pool's parallelism).  With [trace], each run's JSONL events, tagged
    with its [trace_extra], are written to the channel in task order as
    soon as its pool-width batch completes, and the returned runs carry
    no event log ([obs = None]), so memory holds one batch of logs. *)

type group = {
  g_scenario : Basalt_sim.Scenario.t;
      (** The cell's resolved scenario (first seed) — the source of
          per-cell parameters such as [f] for convergence targets. *)
  g_runs : run list;  (** One run per seed. *)
}

type row = {
  row_labels : (string * string) list;  (** Non-pivot coordinates. *)
  groups : (string * group) list;  (** Per pivot label, in axis order. *)
}

val rows_of :
  ?scale:Basalt_experiments.Scale.t -> Spec.t -> task list -> run list -> row list
(** [rows_of spec ts runs] regroups the flat results into one row per
    non-pivot cell. *)

val run :
  ?scale:Basalt_experiments.Scale.t ->
  ?pool:Basalt_parallel.Pool.t ->
  Spec.t ->
  row list
(** [run spec] is [run_tasks] followed by [rows_of]. *)

val columns : Spec.t -> row list -> int * Basalt_sim.Report.column list
(** [columns spec rows] lays out the table: one column per non-pivot
    axis, then [<pivot-label>_<metric>] columns, metric-major, in the
    spec's metrics order. *)

val print :
  ?scale:Basalt_experiments.Scale.t ->
  ?csv:string ->
  ?trace:out_channel ->
  ?pool:Basalt_parallel.Pool.t ->
  Spec.t ->
  unit
(** [print spec] runs the matrix and prints its table; [csv] also
    writes the rows as CSV, [trace] receives the merged deterministic
    JSONL event trace of every run, tagged with each axis's
    [trace-key], in task order (byte-identical at any [-j N]); see
    {!run_tasks}.  Several matrices may share one trace channel. *)
