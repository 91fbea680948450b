module Json = Ipcp_telemetry.Json
module Telemetry = Ipcp_telemetry.Telemetry

(* ---------------- the consistent-hash ring ---------------- *)

module Ring = struct
  (* Points sorted by hash; a key belongs to the first point clockwise
     of its own hash.  ~50 virtual nodes per slot keep the load spread
     within a few percent of even and, more importantly here, make the
     failover order (next distinct slot clockwise) different for
     different keys, so one shard's death spreads its keys over all
     survivors instead of doubling up a single neighbour. *)
  type t = { points : (string * int) array }

  let vnodes = 50
  let hash s = Digest.to_hex (Digest.string s)

  let make ~slots =
    let points =
      List.concat
        (List.init (max 1 slots) (fun slot ->
             List.init vnodes (fun i ->
                 (hash (Printf.sprintf "vnode:%d:%d" slot i), slot))))
    in
    let arr = Array.of_list points in
    Array.sort compare arr;
    { points = arr }

  (* Index of the first point with hash >= the key's hash (wrapping). *)
  let index t key =
    let h = hash key in
    let n = Array.length t.points in
    let rec bs lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst t.points.(mid) < h then bs (mid + 1) hi else bs lo mid
    in
    let i = bs 0 n in
    if i = n then 0 else i

  let lookup t key = snd t.points.(index t key)

  let order_from t key =
    let n = Array.length t.points in
    let start = index t key in
    let seen = Hashtbl.create 8 in
    let out = ref [] in
    for k = 0 to n - 1 do
      let slot = snd t.points.((start + k) mod n) in
      if not (Hashtbl.mem seen slot) then begin
        Hashtbl.add seen slot ();
        out := slot :: !out
      end
    done;
    List.rev !out
end

(* ---------------- routing keys ---------------- *)

let read_file_opt path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Some s
        | exception (End_of_file | Sys_error _) -> None)

let route_key (req : Request.t) =
  match req.rq_op with
  | Request.Health -> "op:health"
  | Request.Ping -> "op:ping"
  | Request.Tables -> "op:tables"
  | Request.Analyze_delta ->
    (* session affinity: every delta of a session must reach the shard
       holding that session's pinned fixpoint *)
    Printf.sprintf "session:%s:%s"
      (Ipcp_core.Config.analysis_name req.rq_analysis)
      req.rq_session
  | Request.Analyze | Request.Certify -> (
    (* program-content affinity: every request for one program reaches
       the same shard whatever its id, path or configuration *)
    match req.rq_target with
    | None -> "op:tables"
    | Some (Request.Suite s) -> (
      match Ipcp_suite.Registry.find s with
      | Some e ->
        "prog:" ^ Digest.to_hex (Digest.string e.Ipcp_suite.Registry.source)
      | None -> "suite:" ^ s)
    | Some (Request.File p) -> (
      match read_file_opt p with
      | Some src -> "prog:" ^ Digest.to_hex (Digest.string src)
      | None -> "path:" ^ p))

(* ---------------- configuration ---------------- *)

type config = {
  shards : int;
  binary : string;
  shard_args : string list;
  queue : int;
  breaker_threshold : int;
  backoff_base_ms : int;
  backoff_cap_ms : int;
  seed : int;
  health_out : string option;
  pids_out : string option;
  route_deadline_ms : int;
      (** per-request deadline at the router: a request whose shard has
          not answered within this window is hedged to the next ring
          slot exactly once (0 disables) *)
  heartbeat_ms : int;
      (** interval between in-band pings to each live shard; any frame
          from the shard counts as the answer (0 disables) *)
  heartbeat_misses : int;
      (** consecutive unanswered pings before a shard is ejected
          (SIGTERM-then-SIGKILL, salvage, seeded-backoff respawn) *)
}

let default_config =
  {
    shards = 2;
    binary = Sys.executable_name;
    shard_args = [];
    queue = 64;
    breaker_threshold = 3;
    backoff_base_ms = 10;
    backoff_cap_ms = 1000;
    seed = 0;
    health_out = None;
    pids_out = None;
    route_deadline_ms = 0;
    heartbeat_ms = 1000;
    heartbeat_misses = 3;
  }

(* ---------------- router state ---------------- *)

(* One admitted-and-forwarded request awaiting its shard's frame. *)
type pending = {
  p_iid : string;  (** internal wire id ([x<seq>]) *)
  p_orig_id : string;  (** the client's id, restored on the way out *)
  p_line : string;  (** the request line with [p_iid] spliced in *)
  p_ikey : string;  (** breaker key ({!Request.input_key}) *)
  p_rkey : string;  (** ring key ({!route_key}) *)
  mutable p_rerouted : bool;  (** the one failover has been spent *)
  mutable p_slot : int;  (** slot of the most recent forward; -1 = parked *)
  mutable p_due : float;
      (** absolute deadline of the current forward (0.0 = none); expiry
          hedges the request to the next ring slot, once *)
}

(* One in-progress health fan-out, merging as shard answers arrive. *)
type agg = {
  a_sink : [ `Client of string | `File of string ];
  mutable a_await : int;
  mutable a_docs : Json.t list;
}

type slot_state = {
  s_slot : int;
  mutable s_up : Shard.t option;
  mutable s_framer : Transport.Framing.t;
  mutable s_inflight : (string, unit) Hashtbl.t;
      (** iids (pending and health parts) currently on this shard *)
  mutable s_due : float;  (** respawn deadline while down *)
  mutable s_restarts : int;
  mutable s_hb_sent : float;  (** when the last ping left (0.0 = never) *)
  mutable s_hb_seen : float;  (** when any frame last arrived *)
  mutable s_hb_missed : int;  (** consecutive pings with no frame since *)
}

type stats = {
  mutable rx : int;
  mutable forwarded : int;
  mutable completed : int;
  mutable rerouted : int;
  mutable lost : int;
  mutable quarantined : int;
  mutable invalid : int;
  mutable drained : int;
  mutable restarts : int;
  mutable deadline_expired : int;
  mutable hedged : int;
  mutable ejections : int;
  mutable late_dropped : int;
      (** late answers from a slow shard discarded by the response
          ledger after the hedge already answered *)
}

type rt = {
  cfg : config;
  ring : Ring.t;
  slots : slot_state array;
  pending : (string, pending) Hashtbl.t;
  waiting : pending Queue.t;  (** admitted, no live shard yet *)
  aggs : (string, agg) Hashtbl.t;
  breaker : (string, int) Hashtbl.t;  (** shard crashes per input key *)
  st : stats;
  chunk : Bytes.t;
  mutable seq : int;
  mutable hseq : int;
  mutable pseq : int;  (** ping sequence ([g<pseq>.<slot>] iids) *)
  mutable eof : bool;  (** stdin closed (or stop observed) *)
  mutable out_dead : bool;
}

(* Respawn delay of a slot's [restart]-th consecutive failure: capped
   exponential backoff plus deterministic jitter — a pure function of
   (seed, slot, restart), so a seeded crash run waits the same
   everywhere. *)
let backoff_ms ~base ~cap ~seed ~slot ~restart =
  let exp = base * (1 lsl min (restart - 1) 16) in
  let capped = min cap (max base exp) in
  let prng =
    Ipcp_support.Prng.create ((seed * 1_000_003) + (slot * 8191) + restart)
  in
  capped + Ipcp_support.Prng.int prng (capped + 1)

(* The absolute respawn time of [ss]'s latest restart. *)
let respawn_due_at rt ss =
  Unix.gettimeofday ()
  +. float_of_int
       (backoff_ms ~base:rt.cfg.backoff_base_ms ~cap:rt.cfg.backoff_cap_ms
          ~seed:rt.cfg.seed ~slot:ss.s_slot ~restart:ss.s_restarts)
     /. 1000.0

(* ---------------- output ---------------- *)

(* Stdout is the response stream; a dead stdout latches (the router
   finishes its bookkeeping but stops writing) and surfaces as exit 3,
   exactly like the stdio server. *)
let emit rt (r : Request.response) =
  if not rt.out_dead then
    try
      print_string (Request.response_to_line r);
      print_newline ();
      flush stdout
    with Sys_error _ -> rt.out_dead <- true

let lost_response (p : pending) =
  Request.response ~id:p.p_orig_id ~code:Jobs.exit_internal
    ~reason:"shard crashed twice while serving this request"
    ~error:
      (Err.worker_lost
         "the shard process serving this request died, and so did the one \
          the request was re-routed to")
    Request.Error_crash

(* ---------------- supervision ---------------- *)

let shards_up rt =
  Array.fold_left
    (fun acc ss -> if ss.s_up = None then acc else acc + 1)
    0 rt.slots

(* Worst-case staleness across the live fleet: how long ago the least
   recently heard-from shard last produced any frame.  0 with heartbeats
   disabled (the reading would be meaningless noise). *)
let heartbeat_age_ms rt =
  if rt.cfg.heartbeat_ms <= 0 then 0
  else begin
    let now = Unix.gettimeofday () in
    Array.fold_left
      (fun acc ss ->
        match ss.s_up with
        | None -> acc
        | Some _ -> max acc (int_of_float ((now -. ss.s_hb_seen) *. 1000.0)))
      0 rt.slots
  end

let write_pids rt =
  match rt.cfg.pids_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Array.iter
          (fun ss ->
            match ss.s_up with
            | Some sh -> Printf.fprintf oc "%d %d\n" ss.s_slot (Shard.pid sh)
            | None -> ())
          rt.slots)

let merged_health rt docs =
  let sum section =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun doc ->
        match Json.member section doc with
        | Some (Json.Obj fields) ->
          List.iter
            (fun (k, v) ->
              match v with
              | Json.Int i ->
                Hashtbl.replace tbl k
                  (Option.value ~default:0 (Hashtbl.find_opt tbl k) + i)
              | _ -> ())
            fields
        | _ -> ())
      docs;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  in
  let gauges =
    sum "gauges"
    @ [
        ("router.shards", rt.cfg.shards);
        ("router.shards_up", shards_up rt);
        ("router.pending", Hashtbl.length rt.pending);
        ("router.waiting", Queue.length rt.waiting);
        ("router.heartbeat_age_ms", heartbeat_age_ms rt);
      ]
  in
  let counters =
    sum "counters"
    @ [
        ("router.requests", rt.st.rx);
        ("router.forwarded", rt.st.forwarded);
        ("router.completed", rt.st.completed);
        ("router.rerouted", rt.st.rerouted);
        ("router.lost", rt.st.lost);
        ("router.quarantined", rt.st.quarantined);
        ("router.invalid", rt.st.invalid);
        ("router.drained", rt.st.drained);
        ("router.shard_restarts", rt.st.restarts);
        ("router.deadline_expired", rt.st.deadline_expired);
        ("router.hedged", rt.st.hedged);
        ("router.ejections", rt.st.ejections);
        ("router.late_dropped", rt.st.late_dropped);
      ]
  in
  Telemetry.health_snapshot ~gauges ~counters

let finish_agg rt a =
  let doc = merged_health rt (List.rev a.a_docs) in
  match a.a_sink with
  | `Client id ->
    emit rt (Request.response ~id ~code:0 ~health:doc Request.Ok_done)
  | `File path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Json.to_string doc);
        output_char oc '\n')

(* A health part whose shard died before answering: the merge proceeds
   without that shard's contribution. *)
let agg_drop rt iid =
  match Hashtbl.find_opt rt.aggs iid with
  | None -> ()
  | Some a ->
    Hashtbl.remove rt.aggs iid;
    a.a_await <- a.a_await - 1;
    if a.a_await = 0 then finish_agg rt a

let crash_note rt key =
  if rt.cfg.breaker_threshold > 0 then
    Hashtbl.replace rt.breaker key
      (Option.value ~default:0 (Hashtbl.find_opt rt.breaker key) + 1)

let breaker_open rt key =
  rt.cfg.breaker_threshold > 0
  && Option.value ~default:0 (Hashtbl.find_opt rt.breaker key)
     >= rt.cfg.breaker_threshold

(* Forward [p] to the first live slot of [order].  With every shard
   down it parks in [waiting], flushed on the next respawn —
   conservation holds because the router never gives up on an admitted
   request, it only limits *re-routing after a crash* to once.  A
   successful send stamps [p_slot] and re-arms the per-forward deadline:
   the deadline measures time on a shard, not time since admission, so
   a request that waited out a full-fleet outage still gets its window. *)
let rec forward_order rt p order =
  let rec try_slots = function
    | [] ->
      p.p_slot <- -1;
      Queue.add p rt.waiting
    | slot :: rest -> (
      let ss = rt.slots.(slot) in
      match ss.s_up with
      | None -> try_slots rest
      | Some sh ->
        if Shard.send sh p.p_line then begin
          Hashtbl.replace ss.s_inflight p.p_iid ();
          p.p_slot <- slot;
          if rt.cfg.route_deadline_ms > 0 then
            p.p_due <-
              Unix.gettimeofday ()
              +. (float_of_int rt.cfg.route_deadline_ms /. 1000.0);
          rt.st.forwarded <- rt.st.forwarded + 1
        end
        else begin
          (* the connection just broke: run the death protocol (which
             re-routes *its* inflight) and keep walking the ring *)
          shard_died rt slot;
          try_slots rest
        end)
  in
  try_slots order

and forward rt p = forward_order rt p (Ring.order_from rt.ring p.p_rkey)

(* The death protocol.  Order matters: salvage buffered frames first (a
   response fully written before the crash resolves normally — no
   double answer), only then charge the remaining inflight requests to
   the crash: each gets its single re-route, or its terminal
   E-WORKER-LOST frame if the re-route is already spent.

   [eject] is the gray-failure variant: the process is alive but not
   answering heartbeats (wedged, stopped, or pathologically slow), so
   instead of merely abandoning the connection we SIGTERM it and
   escalate to SIGKILL on a short fuse — a stopped shard never reads
   the end of input that closing its socketpair delivers. *)
and shard_died ?(eject = false) rt slot =
  let ss = rt.slots.(slot) in
  match ss.s_up with
  | None -> ()
  | Some sh ->
    (match Shard.fd sh with
    | None -> ()
    | Some fd ->
      let rec salvage () =
        match Unix.read fd rt.chunk 0 (Bytes.length rt.chunk) with
        | exception Unix.Unix_error _ -> ()
        | 0 -> ()
        | n ->
          List.iter
            (function
              | Transport.Framing.Line l -> resolve rt ss l
              | Transport.Framing.Oversize -> ())
            (Transport.Framing.feed ss.s_framer (Bytes.sub_string rt.chunk 0 n));
          salvage ()
      in
      salvage ());
    ss.s_up <- None;
    ss.s_framer <- Transport.Framing.create ~max_line:0;
    if eject then Shard.terminate ~patience_ms:500 sh else Shard.abandon sh;
    ss.s_restarts <- ss.s_restarts + 1;
    rt.st.restarts <- rt.st.restarts + 1;
    ss.s_due <- respawn_due_at rt ss;
    let iids = Hashtbl.fold (fun k () acc -> k :: acc) ss.s_inflight [] in
    Hashtbl.reset ss.s_inflight;
    List.iter
      (fun iid ->
        match Hashtbl.find_opt rt.pending iid with
        | Some p when p.p_slot <> slot ->
          (* a stale ledger entry: the request was hedged away at its
             deadline and its live copy is on another shard — this
             shard's death charges it nothing *)
          ()
        | Some p ->
          crash_note rt p.p_ikey;
          if p.p_rerouted then begin
            Hashtbl.remove rt.pending iid;
            rt.st.lost <- rt.st.lost + 1;
            emit rt (lost_response p)
          end
          else begin
            p.p_rerouted <- true;
            rt.st.rerouted <- rt.st.rerouted + 1;
            forward rt p
          end
        | None -> agg_drop rt iid)
      (List.sort compare iids)

(* One response frame arrived from [ss]: restore the client's id and
   relay it byte-identically (same parser, same fixed-key-order
   renderer on both sides of the hop). *)
and resolve rt ss line =
  if String.trim line <> "" then
    match Request.response_of_line line with
    | Error e ->
      prerr_endline
        (Printf.sprintf "ipcp route: shard %d spoke a malformed frame (%s)"
           ss.s_slot e)
    | Ok r -> (
      let iid = r.Request.rs_id in
      Hashtbl.remove ss.s_inflight iid;
      match Hashtbl.find_opt rt.pending iid with
      | Some p ->
        Hashtbl.remove rt.pending iid;
        (* a served input is behaving again: close its breaker *)
        (match r.Request.rs_status with
        | Request.Ok_done -> Hashtbl.remove rt.breaker p.p_ikey
        | _ -> ());
        rt.st.completed <- rt.st.completed + 1;
        emit rt { r with Request.rs_id = p.p_orig_id }
      | None -> (
        match Hashtbl.find_opt rt.aggs iid with
        | Some a ->
          Hashtbl.remove rt.aggs iid;
          (match r.Request.rs_health with
          | Some doc -> a.a_docs <- doc :: a.a_docs
          | None -> ());
          a.a_await <- a.a_await - 1;
          if a.a_await = 0 then finish_agg rt a
        | None ->
          (* the response ledger's discard point.  A request iid ([x*])
             with no pending entry is a late answer from a shard whose
             request was already resolved — the hedge answered first —
             and is dropped here, never double-delivered.  Ping pongs
             ([g*]) land here by design and count as nothing; any frame
             already refreshed [s_hb_seen]. *)
          if String.length iid > 0 && iid.[0] = 'x' then
            rt.st.late_dropped <- rt.st.late_dropped + 1))

let flush_waiting rt =
  let parked = Queue.length rt.waiting in
  for _ = 1 to parked do
    forward rt (Queue.pop rt.waiting)
  done

let respawn_due rt =
  Array.iter
    (fun ss ->
      if ss.s_up = None && Unix.gettimeofday () >= ss.s_due then begin
        match
          (* no line cap on a shard: the router, its only client, has
             capped stdin already, and its id rewrite can lengthen an
             admitted line past the cap *)
          Shard.start ~binary:rt.cfg.binary ~slot:ss.s_slot
            ~args:
              ("--queue" :: string_of_int rt.cfg.queue :: "--max-line" :: "0"
             :: rt.cfg.shard_args)
        with
        | sh ->
          ss.s_up <- Some sh;
          ss.s_framer <- Transport.Framing.create ~max_line:0;
          ss.s_hb_sent <- 0.0;
          ss.s_hb_seen <- Unix.gettimeofday ();
          ss.s_hb_missed <- 0;
          write_pids rt;
          flush_waiting rt
        | exception _ ->
          (* spawn failed (fork or descriptor pressure): retry forever on
             the same backoff schedule — a router with zero shards up
             still owes every parked request a response *)
          ss.s_restarts <- ss.s_restarts + 1;
          ss.s_due <- respawn_due_at rt ss
      end)
    rt.slots

(* ---------------- gray-failure detection ---------------- *)

let ping_line iid =
  Json.to_string (Json.Obj [ ("id", Json.Str iid); ("op", Json.Str "ping") ])

(* Heartbeats are in-band ping requests the shard answers off-queue (like
   health), so a responsive process pongs even with every worker busy.
   Any frame from the shard — pong or response — refreshes [s_hb_seen];
   an interval that elapses with nothing heard since the last ping is a
   miss, and [heartbeat_misses] consecutive misses eject the shard: a
   process that is alive but silent is indistinguishable from one that
   will never answer, and its inflight requests deserve their failover. *)
let heartbeat rt =
  if rt.cfg.heartbeat_ms > 0 then begin
    let now = Unix.gettimeofday () in
    let interval = float_of_int rt.cfg.heartbeat_ms /. 1000.0 in
    Array.iter
      (fun ss ->
        match ss.s_up with
        | None -> ()
        | Some sh ->
          if now -. ss.s_hb_sent >= interval then begin
            if ss.s_hb_sent > 0.0 && ss.s_hb_seen < ss.s_hb_sent then
              ss.s_hb_missed <- ss.s_hb_missed + 1
            else ss.s_hb_missed <- 0;
            if ss.s_hb_missed >= rt.cfg.heartbeat_misses then begin
              rt.st.ejections <- rt.st.ejections + 1;
              prerr_endline
                (Printf.sprintf
                   "ipcp route: shard %d missed %d heartbeats; ejecting \
                    (pid %d)"
                   ss.s_slot ss.s_hb_missed (Shard.pid sh));
              shard_died ~eject:true rt ss.s_slot
            end
            else begin
              rt.pseq <- rt.pseq + 1;
              ss.s_hb_sent <- now;
              (* fire-and-forget: the pong is not ledgered — it falls to
                 [resolve]'s discard arm; liveness is tracked by
                 [s_hb_seen], which any frame refreshes *)
              if not (Shard.send sh (ping_line (Printf.sprintf "g%d.%d" rt.pseq ss.s_slot)))
              then shard_died rt ss.s_slot
            end
          end)
      rt.slots
  end

(* The per-request deadline scan: a forward that outlived its window is
   hedged to the next ring slot, spending the request's one failover.
   The slow shard's ledger entry stays in place so its late answer is
   recognized and discarded, never double-delivered — the hedge trades
   at most one duplicate compute for bounded tail latency, and the
   one-terminal-frame conservation law survives because only the
   pending-table entry (removed exactly once) can emit. *)
let check_route_deadlines rt =
  if rt.cfg.route_deadline_ms > 0 then begin
    let now = Unix.gettimeofday () in
    let expired =
      Hashtbl.fold
        (fun _ p acc ->
          if
            (not p.p_rerouted)
            && p.p_slot >= 0
            && p.p_due > 0.0
            && now >= p.p_due
          then p :: acc
          else acc)
        rt.pending []
    in
    List.iter
      (fun p ->
        p.p_rerouted <- true;
        rt.st.deadline_expired <- rt.st.deadline_expired + 1;
        rt.st.hedged <- rt.st.hedged + 1;
        let prev = p.p_slot in
        (* prefer any slot other than the slow one; a one-shard fleet
           can only retry the same slot *)
        let order =
          List.filter (fun s -> s <> prev) (Ring.order_from rt.ring p.p_rkey)
          @ [ prev ]
        in
        forward_order rt p order)
      (List.sort (fun a b -> compare a.p_iid b.p_iid) expired)
  end

(* ---------------- admission ---------------- *)

let health_request_line iid =
  Json.to_string
    (Json.Obj [ ("id", Json.Str iid); ("op", Json.Str "health") ])

let start_health rt sink =
  rt.hseq <- rt.hseq + 1;
  let a = { a_sink = sink; a_await = 0; a_docs = [] } in
  Array.iter
    (fun ss ->
      match ss.s_up with
      | None -> ()
      | Some sh ->
        let iid = Printf.sprintf "h%d.%d" rt.hseq ss.s_slot in
        if Shard.send sh (health_request_line iid) then begin
          Hashtbl.replace rt.aggs iid a;
          Hashtbl.replace ss.s_inflight iid ();
          a.a_await <- a.a_await + 1
        end
        else shard_died rt ss.s_slot)
    rt.slots;
  if a.a_await = 0 then finish_agg rt a

let admit rt line =
  if String.trim line <> "" then begin
    rt.st.rx <- rt.st.rx + 1;
    match Request.of_line line with
    | Error pe ->
      rt.st.invalid <- rt.st.invalid + 1;
      emit rt (Server.invalid_response pe)
    | Ok req when req.Request.rq_op = Request.Health ->
      start_health rt (`Client req.Request.rq_id)
    | Ok req ->
      let ikey = Request.input_key req in
      if breaker_open rt ikey then begin
        rt.st.quarantined <- rt.st.quarantined + 1;
        emit rt (Server.quarantined_response req)
      end
      else begin
        rt.seq <- rt.seq + 1;
        let iid = "x" ^ string_of_int rt.seq in
        let fields =
          match Json.of_string line with
          | Ok (Json.Obj fields) -> fields
          | Ok _ | Error _ -> []
          (* unreachable: of_line just parsed it as an object *)
        in
        let line' =
          Json.to_string
            (Json.Obj (("id", Json.Str iid) :: List.remove_assoc "id" fields))
        in
        let p =
          {
            p_iid = iid;
            p_orig_id = req.Request.rq_id;
            p_line = line';
            p_ikey = ikey;
            p_rkey = route_key req;
            p_rerouted = false;
            p_slot = -1;
            p_due = 0.0;
          }
        in
        Hashtbl.replace rt.pending iid p;
        forward rt p
      end
  end

let reject_drained rt line =
  Option.iter
    (fun r ->
      rt.st.rx <- rt.st.rx + 1;
      rt.st.drained <- rt.st.drained + 1;
      emit rt r)
    (Server.drained_line line)

(* A stopping router spawns no shard, so a parked request would wait
   forever: it is answered as a line no shard admitted, under its
   client's id. *)
let drain_parked rt =
  Queue.iter
    (fun p ->
      Hashtbl.remove rt.pending p.p_iid;
      Option.iter
        (fun (r : Request.response) ->
          rt.st.drained <- rt.st.drained + 1;
          emit rt { r with Request.rs_id = p.p_orig_id })
        (Server.drained_line p.p_line))
    rt.waiting;
  Queue.clear rt.waiting

(* Stdin is framed with serve's own cap, so an oversize line gets the
   frame [ipcp serve] answers on stdio, and, as there, ends the input. *)
let max_line = Server.default_config.Server.max_line

let refuse_oversize rt =
  rt.st.rx <- rt.st.rx + 1;
  rt.st.invalid <- rt.st.invalid + 1;
  emit rt (Server.oversize_response ~max_line);
  rt.eof <- true

(* Stdin backpressure: a line is admitted only while every live shard
   holds fewer than [queue] forwarded-but-unanswered requests and none
   is parked, so no shard's admission queue fills and sheds. *)
let has_room rt =
  Queue.is_empty rt.waiting
  && Array.for_all
       (fun ss -> ss.s_up = None || Hashtbl.length ss.s_inflight < rt.cfg.queue)
       rt.slots

(* ---------------- run ---------------- *)

let run cfg =
  let cfg = { cfg with shards = max 1 cfg.shards } in
  let rt =
    {
      cfg;
      ring = Ring.make ~slots:cfg.shards;
      slots =
        Array.init cfg.shards (fun slot ->
            {
              s_slot = slot;
              s_up = None;
              s_framer = Transport.Framing.create ~max_line:0;
              s_inflight = Hashtbl.create 16;
              s_due = 0.0;
              s_restarts = 0;
              s_hb_sent = 0.0;
              s_hb_seen = 0.0;
              s_hb_missed = 0;
            });
      pending = Hashtbl.create 64;
      waiting = Queue.create ();
      aggs = Hashtbl.create 8;
      breaker = Hashtbl.create 16;
      st =
        {
          rx = 0;
          forwarded = 0;
          completed = 0;
          rerouted = 0;
          lost = 0;
          quarantined = 0;
          invalid = 0;
          drained = 0;
          restarts = 0;
          deadline_expired = 0;
          hedged = 0;
          ejections = 0;
          late_dropped = 0;
        };
      chunk = Bytes.create 65536;
      seq = 0;
      hseq = 0;
      pseq = 0;
      eof = false;
      out_dead = false;
    }
  in
  Server.with_signals @@ fun () ->
  (* initial fleet; a slot that fails to start is retried by the normal
     respawn schedule *)
  respawn_due rt;
  let stdin_framer = Transport.Framing.create ~max_line in
  (* framed stdin events not yet admitted: they wait for {!has_room} *)
  let held = Queue.create () in
  let end_stdin () =
    rt.eof <- true;
    (* a final line without a trailing newline is still a request *)
    Option.iter
      (fun l -> Queue.add (Transport.Framing.Line l) held)
      (Transport.Framing.finish stdin_framer)
  in
  let read_stdin () =
    match Unix.read Unix.stdin rt.chunk 0 (Bytes.length rt.chunk) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | 0 -> end_stdin ()
    | n ->
      List.iter
        (fun ev -> Queue.add ev held)
        (Transport.Framing.feed stdin_framer (Bytes.sub_string rt.chunk 0 n))
  in
  let read_shard ss =
    match Option.bind ss.s_up Shard.fd with
    | None -> ()
    | Some fd -> (
      match Unix.read fd rt.chunk 0 (Bytes.length rt.chunk) with
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
        ()
      | exception Unix.Unix_error _ -> shard_died rt ss.s_slot
      | 0 -> shard_died rt ss.s_slot
      | n ->
        (* any bytes prove the process is alive and draining *)
        ss.s_hb_seen <- Unix.gettimeofday ();
        List.iter
          (function
            | Transport.Framing.Line l -> resolve rt ss l
            | Transport.Framing.Oversize -> ())
          (Transport.Framing.feed ss.s_framer (Bytes.sub_string rt.chunk 0 n)))
  in
  (* the fd turned writable under a buffered request tail *)
  let flush_shard ss =
    match ss.s_up with
    | Some sh when not (Shard.flush sh) -> shard_died rt ss.s_slot
    | Some _ | None -> ()
  in
  let poll ~stdin =
    let shard_fds =
      Array.fold_left
        (fun acc ss ->
          match Option.bind ss.s_up Shard.fd with
          | Some fd -> (fd, ss) :: acc
          | None -> acc)
        [] rt.slots
    in
    let read_set =
      (if stdin then [ Unix.stdin ] else []) @ List.map fst shard_fds
    in
    let write_set =
      List.filter_map
        (fun (fd, ss) ->
          if Option.fold ~none:false ~some:Shard.pending ss.s_up then Some fd
          else None)
        shard_fds
    in
    match Unix.select read_set write_set [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, writable, _ ->
      List.iter
        (fun fd -> Option.iter flush_shard (List.assq_opt fd shard_fds))
        writable;
      List.iter
        (fun fd ->
          if stdin && fd == Unix.stdin then read_stdin ()
          else Option.iter read_shard (List.assq_opt fd shard_fds))
        ready
  in
  let settled () =
    rt.eof
    && Queue.is_empty held
    && Hashtbl.length rt.pending = 0
    && Queue.is_empty rt.waiting
    && Hashtbl.length rt.aggs = 0
  in
  let rec loop () =
    if Server.stopping () then begin
      (* stop wins over anything still buffered: held lines and a
         partial line already on its way in get typed drain rejections,
         not silence, and so do requests parked for a shard *)
      if not rt.eof then end_stdin ();
      Queue.iter
        (function
          | Transport.Framing.Line l -> reject_drained rt l
          | Transport.Framing.Oversize -> refuse_oversize rt)
        held;
      Queue.clear held;
      drain_parked rt
    end;
    while (not (Queue.is_empty held)) && has_room rt do
      match Queue.pop held with
      | Transport.Framing.Line l -> admit rt l
      | Transport.Framing.Oversize -> refuse_oversize rt
    done;
    if not (settled ()) then begin
      if not (Server.stopping ()) then respawn_due rt;
      heartbeat rt;
      check_route_deadlines rt;
      (* stdin is read only while every held line has been admitted and
         the fleet has room, so a full fleet backs up the writer *)
      poll ~stdin:((not rt.eof) && Queue.is_empty held && has_room rt);
      loop ()
    end
  in
  loop ();
  (* final merged snapshot, while the shards still answer *)
  (match cfg.health_out with
  | None -> ()
  | Some path ->
    start_health rt (`File path);
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Hashtbl.length rt.aggs > 0 && Unix.gettimeofday () < deadline do
      poll ~stdin:false
    done);
  Array.iter (fun ss -> Option.iter Shard.terminate ss.s_up) rt.slots;
  if rt.out_dead then Jobs.exit_input else 0
