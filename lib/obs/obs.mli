(** Deterministic observability: typed instruments and a structured trace
    sink (DESIGN.md §8).

    A registry holds monotonic counters, gauges and fixed-bucket
    histograms, found by name (get-or-create), plus an optional trace
    sink that records timestamped structured events.  Design goals, in
    order:

    - {e free when disabled}: instruments requested from {!disabled} are
      fresh unregistered dummies, so a mutation is a single store into a
      record nobody reads — no branch, no allocation on the hot path,
      and no shared state that domains could race on;
    - {e deterministic when enabled}: time comes from an injected clock
      (the virtual [Engine.now] in simulation; the event-loop clock at
      the allowlisted [lib/net] boundary — never the wall clock
      directly), snapshot order is registration order, and all float
      rendering is fixed-format, so rendered output is bit-identical
      across [-j N] parallelism levels;
    - {e confined}: lint rule D8 keeps references to this module inside
      [lib/obs] and the allowlisted instrumentation boundaries.

    Instrument names are shared across nodes of a simulation: two nodes
    asking for counter ["basalt.rounds"] get the same counter, so values
    are per-run aggregates.  A registry must therefore not be shared
    across concurrently running simulations; [lib/sim/runner.ml] creates
    one registry per run, inside the (possibly pooled) run itself. *)

type t
(** An instrument registry plus optional trace sink, or the no-op
    {!disabled} sink. *)

val disabled : t
(** [disabled] is the no-op sink: {!enabled} is [false], instruments
    requested from it are fresh dummies, {!trace} does nothing, and no
    call ever mutates shared state (safe to use from any domain). *)

val create : ?clock:(unit -> float) -> ?trace:bool -> unit -> t
(** [create ()] is a fresh enabled registry.  [clock] stamps trace
    events (default: constantly [0.]; see {!set_clock}); [trace]
    switches event recording on (default [false] — instruments only). *)

val enabled : t -> bool
(** [enabled t] is [false] exactly for {!disabled}. *)

val tracing : t -> bool
(** [tracing t] is [true] when [t] records trace events.  Call sites
    with per-event field allocation should guard on this. *)

val set_clock : t -> (unit -> float) -> unit
(** [set_clock t f] replaces the trace timestamp source, e.g. with
    [Engine.now] once the engine exists.  No-op on {!disabled}. *)

(** Monotonically increasing integer counters. *)
module Counter : sig
  type t
  (** A counter cell. *)

  val incr : t -> unit
  (** [incr c] adds one: a single store, even on a disabled dummy. *)

  val add : t -> int -> unit
  (** [add c k] adds [k] (negative [k] is a programming error; not
      checked on the hot path). *)

  val value : t -> int
  (** [value c] is the current count. *)
end

(** Last-value (or running-max) float gauges. *)
module Gauge : sig
  type t
  (** A gauge cell. *)

  val set : t -> float -> unit
  (** [set g x] overwrites the gauge with [x]. *)

  val set_max : t -> float -> unit
  (** [set_max g x] keeps the running maximum of observed values. *)

  val value : t -> float
  (** [value g] is the current value ([0.] if never set). *)
end

(** Fixed-bucket histograms (cumulative-free, one count per bucket). *)
module Histogram : sig
  type t
  (** A histogram cell. *)

  val observe : t -> float -> unit
  (** [observe h x] increments the bucket of the first upper edge
      [>= x], or the overflow bucket when [x] exceeds every edge. *)

  val count : t -> int
  (** [count h] is the number of observations. *)

  val sum : t -> float
  (** [sum h] is the sum of observed values. *)

  val edges : t -> float array
  (** [edges h] is the (sorted, inclusive) upper-edge array the
      histogram was created with. *)

  val bucket_counts : t -> int array
  (** [bucket_counts h] has length [Array.length (edges h) + 1]; the
      last cell counts overflow observations. *)

  val quantile : t -> float -> float
  (** [quantile h q] is the interpolated [q]-quantile estimate
      ([0. <= q <= 1.]): walk the cumulative counts to the bucket
      holding rank [q * count], then interpolate linearly between that
      bucket's edges.  The overflow bucket clamps to the last edge;
      an empty histogram reads [0.].  Pure fold, hence deterministic.
      @raise Invalid_argument if [q] is outside [[0, 1]]. *)
end

(** Mergeable log-bucketed quantile sketches (DDSketch-style).

    Values map to fixed buckets [ceil (log_gamma x)] with
    [gamma = 1.04], so quantile estimates carry a bounded relative
    error (~2%) at a fixed memory footprint, independent of the number
    of observations.  Because the bucket mapping is a global constant,
    {!merge} is plain bucket-wise integer addition — exactly
    associative and commutative, which lets per-shard sketches from a
    parallel fan-out combine into the same result in any order. *)
module Sketch : sig
  type t
  (** A sketch cell. *)

  val make : unit -> t
  (** [make ()] is a fresh empty sketch (a fixed-size bucket array
      covering [1e-9 .. 1e15]; values at or below the low cutoff,
      zeros and negatives included, land in a dedicated cell that
      reads back as [0.]). *)

  val relative_error : float
  (** The worst-case relative error of {!quantile} for in-range
      values: [(gamma - 1) / (gamma + 1)]. *)

  val add : t -> float -> unit
  (** [add s x] records one observation. *)

  val count : t -> int
  (** [count s] is the number of observations. *)

  val sum : t -> float
  (** [sum s] is the exact sum of observed values. *)

  val vmin : t -> float
  (** [vmin s] is the exact minimum observed value ([0.] when empty). *)

  val vmax : t -> float
  (** [vmax s] is the exact maximum observed value ([0.] when empty). *)

  val quantile : t -> float -> float
  (** [quantile s q] estimates the [q]-quantile within
      {!relative_error}, clamped into the observed [[vmin, vmax]]
      range.  [0.] when empty.
      @raise Invalid_argument if [q] is outside [[0, 1]]. *)

  val merge : t -> t -> t
  (** [merge a b] is a fresh sketch holding both inputs' observations:
      bucket-wise addition, exactly associative and commutative.
      Neither input is mutated. *)

  val buckets : t -> (int * int) list
  (** [buckets s] is the nonzero [(cell_index, count)] pairs in
      ascending cell order — the serialization-friendly raw view. *)
end

(** Windowed per-round accumulators.

    A series accumulates observations into a current window
    (count/sum/min/max); {!roll} closes the window and starts a fresh
    one.  The driver calls {!roll_series} once per simulation round, so
    a series is a per-round trajectory recorded in O(rounds) space no
    matter how many observations each round makes. *)
module Series : sig
  type t
  (** A series cell. *)

  type window = {
    w_count : int;  (** observations in the window *)
    w_sum : float;  (** their sum *)
    w_min : float;  (** minimum ([infinity] when the window is empty) *)
    w_max : float;  (** maximum ([neg_infinity] when empty) *)
  }
  (** One closed window's summary. *)

  val observe : t -> float -> unit
  (** [observe s x] records [x] into the current (open) window. *)

  val roll : t -> unit
  (** [roll s] closes the current window (appending its summary) and
      opens an empty one.  Usually reached via {!roll_series}. *)

  val windows : t -> window list
  (** [windows s] is every closed window, oldest first. *)

  val window_count : t -> int
  (** [window_count s] is the number of closed windows. *)

  val total : t -> int
  (** [total s] counts every observation ever made, open window
      included. *)

  val grand_sum : t -> float
  (** [grand_sum s] sums every observation ever made, open window
      included, folding in a fixed order so the float is
      bit-stable. *)
end

val counter : t -> string -> Counter.t
(** [counter t name] gets or creates the counter [name].  On
    {!disabled}, a fresh unregistered dummy.  @raise Invalid_argument
    if [name] already names a non-counter instrument. *)

val gauge : t -> string -> Gauge.t
(** [gauge t name] gets or creates the gauge [name] (dummy on
    {!disabled}).  @raise Invalid_argument on an instrument-kind
    clash. *)

val histogram : ?edges:float array -> t -> string -> Histogram.t
(** [histogram t name] gets or creates the histogram [name] with the
    given upper [edges] (default: powers of two from 64 to 65536,
    sized for datagram bytes).  [edges] must be sorted strictly
    increasing and non-empty.  On re-lookup the existing instrument is
    returned and [edges] is ignored.  @raise Invalid_argument on bad
    [edges] or an instrument-kind clash. *)

val sketch : t -> string -> Sketch.t
(** [sketch t name] gets or creates the quantile sketch [name] (dummy
    on {!disabled}).  @raise Invalid_argument on an instrument-kind
    clash. *)

val series : t -> string -> Series.t
(** [series t name] gets or creates the windowed series [name] (dummy
    on {!disabled}).  @raise Invalid_argument on an instrument-kind
    clash. *)

val roll_series : t -> unit
(** [roll_series t] closes the current window of every registered
    series — the per-round tick, called by the simulation driver at
    each measurement boundary.  No-op on {!disabled}. *)

val now : t -> float
(** [now t] reads the registry clock ([0.] on {!disabled}).  Lets
    instrumented code compute durations (e.g. a pull RTT) in the same
    virtual timebase that stamps trace events, without holding its own
    clock. *)

(** {1 Trace events} *)

type value = Int of int | Float of float | Str of string
(** A structured field value. *)

type event = { time : float; name : string; fields : (string * value) list }
(** One trace event: clock stamp, event name, ordered fields. *)

val trace : t -> name:string -> (string * value) list -> unit
(** [trace t ~name fields] appends an event stamped with the registry
    clock.  No-op unless {!tracing}; guard callers that allocate
    [fields] with [if Obs.tracing t then ...]. *)

val events : t -> event list
(** [events t] is all recorded events, oldest first. *)

val event_count : t -> int
(** [event_count t] is [List.length (events t)], without the list. *)

(** {1 Spans}

    A span is a scoped region of virtual time.  {!span} opens it,
    {!span_end} closes it and emits a single trace event carrying the
    span's causal id ([sid]), start time ([t0]) and duration ([dur])
    alongside the fields given at either end.  Ids come from a
    per-registry counter allocated in open order; since each run owns
    its registry and opens spans in a deterministic order, ids are
    bit-identical across [-j N] (DESIGN.md §8).  An unfinished span
    emits nothing. *)

type span
(** An open span handle (or the no-op {!no_span}). *)

val no_span : span
(** The span that never emits — what {!span} returns when tracing is
    off, so handles can be stored unconditionally. *)

val span : t -> name:string -> (string * value) list -> span
(** [span t ~name fields] opens a span stamped with the current clock.
    Returns {!no_span} unless {!tracing}, making the disabled cost one
    branch. *)

val span_end : ?fields:(string * value) list -> t -> span -> unit
(** [span_end t sp] closes [sp], emitting one event named after the
    span with fields [sid], [t0], [dur], then the open-time fields,
    then [fields].  No-op on {!no_span}. *)

type rtt
(** A request/response round-trip tracker: one pending table per
    protocol instance, one shared RTT sketch per registry.  Built for
    the samplers' pull exchanges (DESIGN.md §8). *)

val rtt : t -> name:string -> rtt
(** [rtt t ~name] makes a tracker whose completed round trips feed the
    quantile sketch [name ^ "_rtt"] and, under tracing, emit spans
    named [name] with [node]/[peer] fields.  On {!disabled}, a dummy
    whose operations reduce to one branch. *)

val rtt_start : rtt -> node:int -> peer:int -> unit
(** [rtt_start r ~node ~peer] records that [node] sent [peer] a
    request now.  A second start to the same peer supersedes the first
    (the superseded span emits nothing, like a lost request). *)

val rtt_finish : rtt -> peer:int -> unit
(** [rtt_finish r ~peer] completes the pending round trip to [peer],
    if any: observes [now - start] into the sketch and closes the
    span.  No-op when no request to [peer] is pending. *)

(** {1 Rendering}

    All float formatting is fixed ([%.12g]) so identical runs render
    byte-identical output regardless of parallelism. *)

val event_to_json : ?extra:(string * value) list -> event -> string
(** [event_to_json e] is a single-line JSON object
    [{"t":<time>,"ev":<name>,...fields}].  [extra] fields are
    interleaved right after ["ev"] (used to tag merged streams, e.g.
    with the protocol name). *)

val output_jsonl : ?extra:(string * value) list -> out_channel -> t -> unit
(** [output_jsonl oc t] writes one {!event_to_json} line per event to
    [oc], oldest first, each ["\n"]-terminated.  Lines are streamed, so
    the whole trace is never rendered in memory. *)

val event_of_json : string -> event option
(** [event_of_json line] parses a line produced by {!event_to_json}
    (the subset of JSON this module emits — flat objects of numbers
    and strings).  [None] on malformed input or missing ["t"]/["ev"]
    keys; extra fields (e.g. the [?extra] tags) are returned as
    ordinary event fields. *)

val events_to_csv : t -> string
(** [events_to_csv t] renders events as CSV with header
    [time,event,fields]; the fields column packs [k=v] pairs separated
    by [';'].  A key or value containing a pack metacharacter ([';'],
    ['='], [','], ['"'] or a newline) is quoted with doubled inner
    quotes, and any whole cell containing [','], ['"'] or a newline is
    RFC 4180-quoted, so arbitrary string fields round-trip. *)

val snapshot : t -> (string * float) list
(** [snapshot t] is every counter (as float) and gauge, in
    registration order — the stable order that makes reports
    bit-identical across [-j N].  Histograms, sketches and series are
    excluded; see {!histograms}, {!sketches}, {!all_series}. *)

val histograms : t -> (string * Histogram.t) list
(** [histograms t] is every histogram, in registration order. *)

val sketches : t -> (string * Sketch.t) list
(** [sketches t] is every quantile sketch, in registration order. *)

val all_series : t -> (string * Series.t) list
(** [all_series t] is every windowed series, in registration order. *)

val render : t -> string
(** [render t] is a human-readable dump of every instrument (the
    SIGUSR1 output of [bin/basalt_node]); histograms and sketches
    include interpolated p50/p90/p99 lines when non-empty. *)

val render_prometheus : t -> string
(** [render_prometheus t] renders every instrument in Prometheus text
    exposition format (version 0.0.4): counters and gauges as-is,
    histograms as cumulative [_bucket{le="..."}] lines plus
    [_sum]/[_count], sketches as summaries with
    [quantile="0.5"|"0.9"|"0.99"] lines, series as [_total]/[_windows]
    gauge pairs (Prometheus has no windowed type; scrapes [rate()]
    them).  Instrument names are sanitized to [[a-zA-Z0-9_:]].  Served
    by [bin/basalt_node --metrics-addr]. *)
