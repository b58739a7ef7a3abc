(* Host-speed correction for the clock metrics.

   The benchmark runs on shared hosts whose speed drifts by tens of per
   cent within seconds, for every kind of work at once, while CPU time
   and wall time stay equal (no preemption shows).  So every clock
   metric is scaled by how fast the host ran while it was measured.  A
   fixed calibration kernel, owned by the benchmark and never by the
   library, is timed at the ends of short measurement intervals: at
   every simulated time unit, between the probe's slices and around each
   set-up.  An interval's speed factor is the mean of the kernel times at
   its two ends over [reference_ns], the kernel's time on a quiet host,
   and its corrected length is its host time divided by that factor, so
   the figures read as they would on that quiet host.  The kernel's own
   time and allocation are left out of every interval, and the raw
   figures are printed beside the corrected ones. *)

module T = Tracer

(* Kernel time on a quiet 2-vCPU host, the scale of the corrected
   figures. *)
let reference_ns = 500_000.0

let table : (int, int array) Hashtbl.t = Hashtbl.create 64

(* About half a millisecond of allocation, hashing and table traffic:
   the mix the simulator itself spends its time on.  Of the kernels
   tried (this one, a cache-missing table walk and an L1-resident hash
   loop), it tracked the simulator's and the loopback path's speed
   best.  It allocates about 60k words, less than the minor heap, and
   runs right after a minor collection, so no collection of the
   program's garbage happens inside it. *)
let work () =
  let acc = ref 0 in
  for i = 0 to 2999 do
    let k = i * 7919 land 0xFFF in
    Hashtbl.replace table k (Array.make 8 i);
    (match Hashtbl.find_opt table (k * 31 land 0xFFF) with
    | Some a -> acc := !acc + a.(0)
    | None -> ());
    acc := !acc + List.length (List.init 4 (fun j -> i + j))
  done;
  Hashtbl.reset table;
  !acc

type clock = {
  mutable start : int;  (** Start of the current interval, ns. *)
  mutable kernel_at_start : float;  (** Kernel time there, ns. *)
  mutable raw_ns : float;  (** Host time of the closed intervals. *)
  mutable ref_ns : float;  (** The same, scaled to the reference host. *)
  mutable words : float;  (** Words the kernel allocated. *)
}

let kernel c =
  let w0 = Gc.minor_words () in
  let t0 = T.now_ns () in
  ignore (Sys.opaque_identity (work ()));
  let dt = float_of_int (T.now_ns () - t0) in
  c.words <- c.words +. (Gc.minor_words () -. w0);
  dt

(* [start ()] times the kernel, then opens the first interval. *)
let start () =
  let c = { start = 0; kernel_at_start = 0.0; raw_ns = 0.0; ref_ns = 0.0; words = 0.0 } in
  Gc.minor ();
  c.kernel_at_start <- kernel c;
  c.start <- T.now_ns ();
  c

(* [lap c] closes the current interval, times the kernel and opens the
   next one.  It returns the closed interval's host time in ns and its
   speed factor (how many times slower than the reference the host
   ran). *)
let lap c =
  (* The collection counts towards the interval whose garbage it
     clears. *)
  Gc.minor ();
  let stop = T.now_ns () in
  let k = kernel c in
  let raw = float_of_int (stop - c.start) in
  let factor = (c.kernel_at_start +. k) /. 2.0 /. reference_ns in
  c.raw_ns <- c.raw_ns +. raw;
  c.ref_ns <- c.ref_ns +. (raw /. factor);
  c.kernel_at_start <- k;
  c.start <- T.now_ns ();
  (raw, factor)
