(* The [udp-loopback] workload: a cluster of real [Udp_node]s sharing one
   [Event_loop] on 127.0.0.1, and a benchmark-owned probe socket on the
   same loop that sends closed-loop PULL requests, one outstanding at a
   time, round-robin over the nodes.  A PULL only makes a node answer
   with its view, so the probe does not perturb the overlay.

   A raw echo socket is registered on the loop from the start, so the
   loop scans the same descriptors in every window; the traced run
   probes it to measure the cost floor of one loopback round trip. *)

module Endpoint = Basalt_net.Endpoint
module Event_loop = Basalt_net.Event_loop
module Udp_node = Basalt_net.Udp_node
module Wire = Basalt_codec.Wire
module Message = Basalt_proto.Message
module Node_id = Basalt_proto.Node_id
module Rng = Basalt_prng.Rng
module T = Tracer

let cluster_size = 32
let tau = 0.02
let warmup_s = 0.5
let timeout_s = 0.2

let config =
  Basalt_core.Config.make ~v:16 ~k:4 ~tau ~rho:(1.0 /. tau) ()

let any_port = Endpoint.make "127.0.0.1" 0

type cluster = {
  loop : Event_loop.t;
  nodes : Udp_node.t array;
  addrs : Unix.sockaddr array;
  ids : (int, unit) Hashtbl.t;  (** Node ids of the cluster. *)
  echo : Unix.file_descr;
  echo_addr : Unix.sockaddr;
}

let bind_local () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind s (Endpoint.to_sockaddr any_port);
  Unix.set_nonblock s;
  s

(* Drain a non-blocking socket, calling [f len from] per datagram. *)
let drain sock buf f =
  let rec go () =
    match Unix.recvfrom sock buf 0 (Bytes.length buf) [] with
    | len, from ->
        f len from;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> go ()
  in
  go ()

(* [create ~node_seeds] binds the cluster: every node first binds an
   OS-assigned port on a throw-away loop so the endpoints are known, then
   restarts on the same port knowing only its two ring neighbours. *)
let create ~node_seeds =
  let n = Array.length node_seeds in
  let scratch = Event_loop.create ~clock:Unix.gettimeofday () in
  let first =
    Array.map
      (fun seed ->
        Udp_node.create ~config ~loop:scratch ~listen:any_port ~bootstrap:[] ~seed ())
      node_seeds
  in
  let eps = Array.map Udp_node.endpoint first in
  Array.iter Udp_node.close first;
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  let nodes =
    Array.mapi
      (fun i seed ->
        Udp_node.create ~config ~loop ~listen:eps.(i)
          ~bootstrap:[ eps.((i + 1) mod n); eps.((i + n - 1) mod n) ]
          ~seed ())
      node_seeds
  in
  let ids = Hashtbl.create n in
  Array.iter (fun nd -> Hashtbl.replace ids (Node_id.to_int (Udp_node.id nd)) ()) nodes;
  let echo = bind_local () in
  let buf = Bytes.create 2048 in
  Event_loop.on_readable loop echo (fun () ->
      drain echo buf (fun len from ->
          try ignore (Unix.sendto echo buf 0 len [] from) with Unix.Unix_error _ -> ()));
  {
    loop;
    nodes;
    addrs = Array.map (fun e -> Endpoint.to_sockaddr e) eps;
    ids;
    echo;
    echo_addr = Unix.getsockname echo;
  }

let close c =
  Array.iter Udp_node.close c.nodes;
  Event_loop.remove_fd c.loop c.echo;
  Unix.close c.echo

let datagrams_in c =
  Array.fold_left (fun acc nd -> acc + (Udp_node.stats nd).Udp_node.datagrams_in) 0 c.nodes

(* The probe window is cut into slices of [slice_s]; reporting the
   median over slices keeps a contention burst of a few hundred
   milliseconds on a shared host from moving the figures. *)
let slice_s = 0.1

type slice = {
  slice_rtts_us : float array;
  slice_seconds : float;
  slice_datagrams_in : int;  (** Received by the cluster's nodes. *)
  slice_speed : float;
      (** Host speed factor from the calibration runs at the slice's two
          ends; the host's speed changes within a second. *)
}

type window = {
  rtts_us : float array;  (** One per timed answer, in order. *)
  slices : slice list;
  speed : float;  (** Mean host speed factor over the window. *)
  attempted : int;
  failed : int;  (** Timed out, or answered with a bad reply. *)
  bad_replies : int;
  seconds : float;
  node_datagrams_in : int;
  probe_datagrams : int;  (** Sent plus received by the probe. *)
  cpu_user_s : float;
  cpu_sys_s : float;
}

(* [closed_loop c ~seconds ~targets ~request ~check] keeps one request
   outstanding at a time, cycling over [targets]; [check] validates a
   reply's bytes.  A request with no reply from its target within
   [timeout_s] is failed, and the next one goes out. *)
let closed_loop c ~seconds ~targets ~request ~check =
  let sock = bind_local () in
  let buf = Bytes.create 65536 in
  let rtts = ref [] and count = ref 0 in
  let attempted = ref 0 and failed = ref 0 and bad = ref 0 and probe_dg = ref 0 in
  let cursor = ref 0 and current = ref 0 in
  let outstanding = ref false and sent_at = ref 0 and stopping = ref false in
  (* A request in flight while the calibration kernel runs is answered
     late through no fault of the cluster: it is not timed. *)
  let tainted = ref false in
  let send_next () =
    if not !stopping then begin
      let k = targets.(!cursor mod Array.length targets) in
      incr cursor;
      current := k;
      let packet = request () in
      incr attempted;
      outstanding := true;
      tainted := false;
      sent_at := T.now_ns ();
      (try ignore (Unix.sendto sock packet 0 (Bytes.length packet) [] (c.addrs.(k)))
       with Unix.Unix_error _ -> ());
      incr probe_dg
    end
  in
  Event_loop.on_readable c.loop sock (fun () ->
      drain sock buf (fun len from ->
          let now = T.now_ns () in
          incr probe_dg;
          if !outstanding && from = c.addrs.(!current) then begin
            outstanding := false;
            if check buf len then begin
              if not !tainted then begin
                rtts := (float_of_int (now - !sent_at) /. 1e3) :: !rtts;
                incr count
              end
            end
            else begin
              incr bad;
              incr failed
            end;
            send_next ()
          end));
  (* A watchdog instead of one timer per request, so the loop's timer
     queue stays small. *)
  let active = ref true in
  Event_loop.every c.loop ~interval:0.05 (fun () ->
      if !active && !outstanding
         && float_of_int (T.now_ns () - !sent_at) /. 1e9 > timeout_s
      then begin
        outstanding := false;
        incr failed;
        send_next ()
      end);
  (* Each slice boundary closes an interval of the host clock, whose
     calibration kernel runs between the slices. *)
  let clock = ref None in
  let cuts = ref [] and last_count = ref 0 and last_dg = ref 0 in
  let cut () =
    let count_at = !count and datagrams_at = datagrams_in c in
    if !outstanding then tainted := true;
    (match !clock with
    | None -> clock := Some (Host.start ())
    | Some h ->
        let raw, factor = Host.lap h in
        cuts := (!last_count, count_at, datagrams_at - !last_dg, raw, factor) :: !cuts);
    last_count := count_at;
    last_dg := datagrams_at
  in
  Event_loop.every c.loop ~interval:slice_s (fun () ->
      if !active && not !stopping then cut ());
  let in0 = datagrams_in c in
  let tm0 = Unix.times () in
  let t0 = T.now_ns () in
  cut ();
  send_next ();
  Event_loop.run_for c.loop seconds;
  let t1 = T.now_ns () in
  let tm1 = Unix.times () in
  let in1 = datagrams_in c in
  cut ();
  (* Let the last request resolve: answered, or failed by the watchdog. *)
  stopping := true;
  while !outstanding do
    Event_loop.run_for c.loop 0.01
  done;
  active := false;
  Event_loop.remove_fd c.loop sock;
  Unix.close sock;
  let rtts_us = Array.of_list (List.rev !rtts) in
  let slices =
    List.filter_map
      (fun (c0, c1, dg, raw, factor) ->
        if raw < slice_s *. 1e9 /. 2.0 then None
        else
          Some
            {
              slice_rtts_us = Array.sub rtts_us c0 (c1 - c0);
              slice_seconds = raw /. 1e9;
              slice_datagrams_in = dg;
              slice_speed = factor;
            })
      (List.rev !cuts)
  in
  let h = Option.get !clock in
  {
    rtts_us;
    slices;
    speed = h.Host.raw_ns /. h.Host.ref_ns;
    attempted = !attempted;
    failed = !failed;
    bad_replies = !bad;
    seconds = float_of_int (t1 - t0) /. 1e9;
    node_datagrams_in = in1 - in0;
    probe_datagrams = !probe_dg;
    cpu_user_s = tm1.Unix.tms_utime -. tm0.Unix.tms_utime;
    cpu_sys_s = tm1.Unix.tms_stime -. tm0.Unix.tms_stime;
  }

(* A reply is correct when it decodes as PULL-REPLY and names only
   cluster members. *)
let valid_reply c ~decode buf len =
  match decode buf len with
  | Ok (Message.Pull_reply ids) ->
      Array.for_all (fun id -> Hashtbl.mem c.ids (Node_id.to_int id)) ids
  | Ok _ | Error _ -> false

let plain_decode buf len = Wire.decode_sub buf ~off:0 ~len

(* [pulls c ~seconds ~order] is the probe's PULL window.  With
   [traced], encoding each request and decoding each reply are timed. *)
let pulls ?(traced = false) c ~seconds ~order =
  let request, decode =
    if traced then begin
      let o_enc = T.op "codec.encode" and o_dec = T.op "codec.decode" in
      ( (fun () -> T.wrap o_enc (fun () -> Wire.encode Message.Pull_request)),
        fun buf len -> T.wrap o_dec (fun () -> plain_decode buf len) )
    end
    else ((fun () -> Wire.encode Message.Pull_request), plain_decode)
  in
  closed_loop c ~seconds ~targets:order ~request ~check:(valid_reply c ~decode)

(* [echoes c ~seconds] bounces PULL-sized datagrams off the raw echo
   socket on the same loop. *)
let echoes c ~seconds =
  let frame = Wire.encode Message.Pull_request in
  let c' = { c with addrs = [| c.echo_addr |] } in
  closed_loop c' ~seconds ~targets:[| 0 |]
    ~request:(fun () -> frame)
    ~check:(fun buf len -> len = Bytes.length frame && Bytes.sub buf 0 len = frame)

let retries c =
  Array.fold_left (fun acc nd -> acc + (Udp_node.stats nd).Udp_node.retries) 0 c.nodes

let decode_errors c =
  Array.fold_left (fun acc nd -> acc + (Udp_node.stats nd).Udp_node.decode_errors) 0 c.nodes

(* Seed plumbing: one generator derived from the benchmark seed draws
   the node seeds, then the probe's target order.  [Udp_node] derives a
   node's round phase from the low four bits of its seed, so those bits
   are fixed to [i mod 16]: every seed spreads the 32 nodes' rounds
   evenly over the 16 phases, and only the rest of each node's stream
   varies.  Otherwise the seed alone would decide how many nodes start
   their rounds together, and so the tail latency. *)
let node_seeds_and_order ~seed =
  let rng = Rng.create ~seed in
  let node_seeds =
    Array.init cluster_size (fun i -> (Rng.int rng (1 lsl 26) lsl 4) lor (i land 15))
  in
  let order = Array.init cluster_size Fun.id in
  for i = cluster_size - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  (node_seeds, order)
