(** Typed scenario-matrix specifications (DESIGN.md §12).

    A spec is the parsed, validated form of a [(matrix ...)] file:
    shared base bindings, one or more named axes whose cross product is
    the condition grid, a pivot axis rendered as columns, and the
    metrics to report per pivot entry.  Parsing and validation report
    every diagnostic as [file:line:col: message]; a spec that survives
    {!load} runs without further error handling in {!Matrix}. *)

type protocol = Basalt | Brahms | Sps | Classic

type side =
  | First_half  (** Nodes [i < n / 2] — the classic half-space cut. *)
  | First of int  (** Nodes [i < k]. *)

type link_fault = {
  lf_loss : Basalt_engine.Link.Loss.t option;
  lf_latency : Basalt_engine.Link.Latency.t option;
  lf_dup : float option;
  lf_reorder : float option;
  lf_reorder_window : float option;
}

type fault_form =
  | Link_fault of link_fault
      (** Applied to every directed pair ({!Basalt_engine.Fault.t}
          [base]). *)
  | Partition_fault of { from_frac : float; until_frac : float; side : side }
      (** A timed cut; the window is a fraction of the run so the file
          stays valid at every scale. *)
  | Outage_fault of { node : int; from_frac : float; until_frac : float }
      (** A timed per-node silence. *)

type churn = {
  churn_rate : float;
  churn_start_frac : float option;
      (** Churn begins at this fraction of the run (default: at once),
          so the file stays valid at every scale. *)
  churn_style : Basalt_sim.Churn.style option;
}

type settings = {
  n : int option;
  v : int option;
  f : float option;
  force : float option;
  steps : float option;
  protocol : protocol option;
  strategy : Basalt_adversary.Adversary.strategy option;
  latency : Basalt_engine.Link.Latency.t option;
  loss : Basalt_engine.Link.Loss.t option;
  faults : fault_form list option;
  churn : churn option;
  measure_every : float option;
  sample_window : int option;
}
(** One group of bindings; [None] fields fall back to the enclosing
    scope and ultimately to the {!Basalt_experiments.Scale} preset or
    {!Basalt_sim.Scenario.make} default. *)

val empty_settings : settings
(** All fields unbound. *)

val merge : settings -> settings -> settings
(** [merge base over] overrides [base] field-wise with the bound fields
    of [over]; fault plans and churn models replace wholesale. *)

type entry = { label : string; bindings : settings }

type axis = {
  axis_name : string;  (** Also the report column header. *)
  trace_key : string option;
      (** When set, traces tag each event with [key: label]. *)
  display_float : bool;
      (** Render labels through {!Basalt_sim.Report.float_cell} (and
          tag traces with a float, not a string). *)
  entries : entry list;
}

type metric =
  | Time  (** Median convergence time; ["no-convergence"] cell on a
              non-majority. *)
  | Samples_byz  (** Mean Byzantine fraction of the sample stream. *)
  | Isolated  (** Mean final fraction of isolated correct nodes. *)
  | Replacements
      (** Churn replacements summed over seeds, printed as an integer. *)
  | Delivered_sent  (** Transport deliveries over sends. *)
  | Delivered  (** Gossip: mean delivered fraction (needs [(app ...)]). *)
  | T99  (** Gossip: median time-to-99%; ["never"] on a non-majority. *)
  | Redundancy  (** Gossip: duplicate frames per delivery. *)

val metric_name : metric -> string
(** The metric's grammar keyword, also its column-header suffix. *)

type t = {
  name : string;  (** {!Basalt_sim.Scenario.t} name and CSV base name. *)
  base : settings;
  seeds : int list option;  (** [None]: the scale preset's seed list. *)
  axes : axis list;  (** In file order; the last one is the pivot. *)
  within : float;  (** Convergence tolerance for {!Time} (default 0.25). *)
  app : Basalt_experiments.Gossip_app.params option;
  metrics : (metric * string list) list;
      (** Per metric, the pivot labels to report ([[]] = all). *)
}

val pivot : t -> axis
(** The pivot axis (validation guarantees it is last). *)

val slug : t -> string
(** [name] with every non-alphanumeric byte replaced by ['_'] — the CSV
    file base name (["robustness-net"] writes [robustness_net.csv]). *)

val of_string : ?file:string -> string -> (t, string) result
(** [of_string src] parses and validates a matrix; errors render as
    ["file:line:col: message"] ([file] defaults to ["<string>"]). *)

val load : string -> (t, [ `Unreadable of string | `Invalid of string ]) result
(** [load path] reads, parses and validates [path].  [`Unreadable]
    carries the I/O error, [`Invalid] the positioned diagnostic. *)
