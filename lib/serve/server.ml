open Ipcp_core
module Fault = Ipcp_support.Fault
module Prng = Ipcp_support.Prng
module Telemetry = Ipcp_telemetry.Telemetry
module Incr = Ipcp_incr.Incr

type config = {
  workers : int;
  queue_capacity : int;
  queue_policy : Bqueue.policy;
  breaker_threshold : int;
  breaker_reset_after : int;
  certify_sample : float;
  seed : int;
  health_out : string option;
  read_timeout_ms : int;
  max_line : int;
}

let default_config =
  {
    workers = 1;
    queue_capacity = 64;
    queue_policy = Bqueue.Reject_new;
    breaker_threshold = 3;
    breaker_reset_after = 0;
    certify_sample = 0.0;
    seed = 0;
    health_out = None;
    read_timeout_ms = 10_000;
    max_line = 1 lsl 20;
  }

(* Whether the online certification policy samples response [seq] — a
   pure function of (seed, rate, seq), never of worker count or timing,
   so the sampled set is identical however the work is scheduled.  The
   multiplier keeps the stream disjoint from the router's respawn-jitter
   PRNG family, which hashes the same seed. *)
let certify_sampled ~seed ~rate ~seq =
  rate > 0.0
  && (rate >= 1.0 || Prng.chance (Prng.create ((seed * 777_767) + seq)) rate)

(* Signal handlers may not allocate much and run on an arbitrary domain:
   they only flip this flag; the event loops (this one and the router's)
   poll it. *)
let stop_flag = Atomic.make false

let stopping () = Atomic.get stop_flag

let with_signals f =
  Atomic.set stop_flag false;
  match Sys.os_type with
  | "Unix" ->
    let install s =
      Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set stop_flag true))
    in
    let old_term = install Sys.sigterm in
    let old_int = install Sys.sigint in
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigterm old_term;
        Sys.set_signal Sys.sigint old_int)
      f
  | _ -> f ()

let contains ~sub s =
  let n = String.length s and k = String.length sub in
  let rec scan i = i + k <= n && (String.sub s i k = sub || scan (i + 1)) in
  k = 0 || scan 0

(* ---------------- outlets ---------------- *)

(* Where one request's terminal response goes: the stdio channel, or the
   client socket that submitted it.  [ol_pending] counts terminal
   responses owed to the peer (the per-connection share of the
   conservation law — a socket connection closes only once it reaches
   zero); [ol_dead] latches on the first failed write. *)
type outlet = {
  ol_mu : Mutex.t;
  ol_dest : [ `Channel of out_channel | `Sock of Transport.Outbuf.t ];
  mutable ol_dead : bool;
  mutable ol_pending : int;
}

let outlet dest =
  { ol_mu = Mutex.create (); ol_dest = dest; ol_dead = false; ol_pending = 0 }

(* One request line was submitted on this outlet: a terminal response is
   now owed. *)
let owe o =
  Mutex.lock o.ol_mu;
  o.ol_pending <- o.ol_pending + 1;
  Mutex.unlock o.ol_mu

(* Worker domains log through one mutex so accounting entries never
   interleave mid-line. *)
let log_mu = Mutex.create ()

let log_line s =
  Mutex.lock log_mu;
  prerr_endline s;
  Mutex.unlock log_mu

type job = { j_seq : int; j_req : Request.t; j_probe : bool; j_outlet : outlet }

type counters = {
  mutable received : int;
  mutable completed : int;
  mutable errors : int;
  mutable cert_failed : int;
      (** responses withheld because online certification failed *)
  mutable shed : int;
  mutable rejected : int;
  mutable quarantined : int;
  mutable invalid : int;
  mutable cert_sampled : int;  (** online checks chosen by the sample rate *)
  mutable cert_passed : int;
  mutable delta_updates : int;  (** analyze-delta served against a session *)
  mutable delta_fresh : int;  (** analyze-delta that started a session *)
  mutable incr_cone_size : int;
  mutable incr_procs_reused : int;
  mutable incr_procs_resolved : int;
  mutable conns_accepted : int;  (** socket connections accepted *)
  mutable client_gone : int;
      (** responses undeliverable because the client connection died *)
  mutable req_oversize : int;  (** lines refused by the length cap *)
  mutable req_timeout : int;  (** connections refused by the read deadline *)
}

(* One circuit-breaker entry.  [bk_denied]/[bk_probing] implement the
   half-open policy: after [breaker_reset_after] quarantined responses,
   the next request runs as a probe instead of being denied; a
   successful probe closes the breaker (the entry is removed), a
   crashing or failing one re-opens it with a fresh denial window. *)
type breaker_entry = {
  mutable bk_crashes : int;
  mutable bk_denied : int;
  mutable bk_probing : bool;
}

type state = {
  cfg : config;
  mu : Mutex.t;  (** guards queue, draining, breaker, counters *)
  cond : Condition.t;  (** queue became non-empty, or draining began *)
  queue : job Bqueue.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
      (** the event loop's self-pipe: a worker that frees a slot of a
          full queue writes a byte, so held stdio lines are admitted at
          once instead of after the select timeout *)
  mutable draining : bool;
  breaker : (string, breaker_entry) Hashtbl.t;
      (** consecutive crashes (and half-open state) per input *)
  sess_mu : Mutex.t;  (** guards [sessions] only: get/put, never a solve *)
  sessions : (Config.analysis * string, Incr.session) Hashtbl.t;
      (** incremental sessions pinned per analysis and session name: the
          two analyses keep separate namespaces, so requests alternating
          between them each update their own session *)
  n : counters;
  kill_input : string option;
      (** test-only: SIGKILL the whole process when executing a matching
          input (IPCP_SERVE_KILL_INPUT) — how the shard-failover
          harnesses fell a shard deterministically *)
  stall_input : string option;
      (** test-only: sleep [stall_ms] when executing a matching input
          (IPCP_SERVE_STALL_INPUT) — the gray-failure twin of
          [kill_input]: the worker hangs past any router deadline but
          the process stays alive and keeps answering pings *)
  stall_ms : int;  (** sleep length of a stalled input (IPCP_SERVE_STALL_MS) *)
}

(* ---------------- responses ---------------- *)

(* The stderr accounting entry for a response whose client vanished: the
   frame that could not be delivered, addressed and typed E-LOAD-GONE,
   so an auditor can still match every submitted request to exactly one
   terminal outcome (wire frame or log entry). *)
let gone_entry (r : Request.response) =
  Request.response_to_line
    (Request.response ~id:r.Request.rs_id
       ~reason:"client connection gone before the response could be written"
       ~error:
         (Err.gone
            (Printf.sprintf
               "terminal %s response undeliverable: client closed the \
                connection first"
               (Request.status_name r.Request.rs_status)))
       r.Request.rs_status)

(* One frame per response, flushed immediately so a client sees each
   result as it lands.  A dead outlet latches: the server keeps draining
   — jobs are cheap to finish and the accounting stays consistent — but
   stops writing to that peer.  On the stdio outlet this surfaces as
   exit 3; on a socket outlet the loss is counted and logged
   (E-LOAD-GONE) and the server lives on — one flaky client must never
   kill the shard. *)
let respond st o r =
  Mutex.lock o.ol_mu;
  (if not o.ol_dead then
     let line = Request.response_to_line r ^ "\n" in
     match o.ol_dest with
     | `Channel oc -> (
       try
         output_string oc line;
         flush oc
       with Sys_error _ -> o.ol_dead <- true)
     | `Sock ob -> (
       (* never blocks: the kernel-refused tail is buffered and resumed
          from the select loop when the fd turns writable *)
       match Transport.Outbuf.write ob line with
       | `Ok | `Buffered -> ()
       | `Dead ->
         o.ol_dead <- true;
         Mutex.lock st.mu;
         st.n.client_gone <- st.n.client_gone + 1;
         Mutex.unlock st.mu;
         log_line (gone_entry r)));
  o.ol_pending <- o.ol_pending - 1;
  Mutex.unlock o.ol_mu

let locked st f =
  Mutex.lock st.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mu) f

(* ---------------- circuit breaker ---------------- *)

(* Admission decision for [key].  [`Run probe] executes the request
   ([probe = true] when it is the half-open probe of an open breaker);
   [`Deny] answers [quarantined] without executing.  Mutates the denial
   window, so callers decide exactly once per request. *)
let breaker_decide st key =
  if st.cfg.breaker_threshold <= 0 then `Run false
  else
    locked st (fun () ->
        match Hashtbl.find_opt st.breaker key with
        | None -> `Run false
        | Some e ->
          if e.bk_crashes < st.cfg.breaker_threshold then `Run false
          else if
            st.cfg.breaker_reset_after > 0
            && (not e.bk_probing)
            && e.bk_denied >= st.cfg.breaker_reset_after
          then begin
            e.bk_probing <- true;
            `Run true
          end
          else begin
            e.bk_denied <- e.bk_denied + 1;
            `Deny
          end)

let breaker_note st key crashed =
  if st.cfg.breaker_threshold > 0 then
    locked st (fun () ->
        if crashed then begin
          let e =
            match Hashtbl.find_opt st.breaker key with
            | Some e -> e
            | None ->
              let e = { bk_crashes = 0; bk_denied = 0; bk_probing = false } in
              Hashtbl.replace st.breaker key e;
              e
          in
          e.bk_crashes <- e.bk_crashes + 1;
          e.bk_denied <- 0;
          e.bk_probing <- false
        end
        else Hashtbl.remove st.breaker key)

(* A failed online certification quarantines the input immediately: the
   solution itself is untrustworthy, so waiting for [breaker_threshold]
   repeat offences would keep serving work we already know is bad. *)
let breaker_trip st key =
  if st.cfg.breaker_threshold > 0 then
    locked st (fun () ->
        let e =
          match Hashtbl.find_opt st.breaker key with
          | Some e -> e
          | None ->
            let e = { bk_crashes = 0; bk_denied = 0; bk_probing = false } in
            Hashtbl.replace st.breaker key e;
            e
        in
        e.bk_crashes <- max e.bk_crashes st.cfg.breaker_threshold;
        e.bk_denied <- 0;
        e.bk_probing <- false)

(* ---------------- health ---------------- *)

let health_doc st =
  let gauges, counters =
    locked st (fun () ->
        let quarantined_inputs =
          Hashtbl.fold
            (fun _ e acc ->
              if e.bk_crashes >= st.cfg.breaker_threshold then acc + 1 else acc)
            st.breaker 0
        in
        let gauges =
          [
            ("serve.queue_depth", Bqueue.length st.queue);
            ("serve.queue_capacity", Bqueue.capacity st.queue);
            ("serve.workers", st.cfg.workers);
            ( "serve.quarantined_inputs",
              if st.cfg.breaker_threshold > 0 then quarantined_inputs else 0 );
            ("serve.breaker_entries", Hashtbl.length st.breaker);
          ]
        in
        let counters =
          [
            ("serve.requests", st.n.received);
            ("serve.completed", st.n.completed);
            ("serve.errors", st.n.errors);
            ("serve.certification_failed", st.n.cert_failed);
            ("serve.shed", st.n.shed);
            ("serve.rejected", st.n.rejected);
            ("serve.quarantined", st.n.quarantined);
            ("serve.invalid", st.n.invalid);
            ("serve.delta_updates", st.n.delta_updates);
            ("serve.delta_fresh", st.n.delta_fresh);
            ("serve.conns_accepted", st.n.conns_accepted);
            ("serve.client_gone", st.n.client_gone);
            ("serve.req_oversize", st.n.req_oversize);
            ("serve.req_timeout", st.n.req_timeout);
            ("certify.sampled", st.n.cert_sampled);
            ("certify.passed", st.n.cert_passed);
            ("certify.failed", st.n.cert_failed);
            ("incr.cone_size", st.n.incr_cone_size);
            ("incr.procs_reused", st.n.incr_procs_reused);
            ("incr.procs_resolved", st.n.incr_procs_resolved);
          ]
        in
        (gauges, counters))
  in
  (* mirror the levels into any ambient profiling sink *)
  List.iter (fun (k, v) -> Telemetry.set_gauge k v) gauges;
  Telemetry.health_snapshot ~gauges ~counters

(* ---------------- job execution ---------------- *)

let resolve_target (req : Request.t) =
  match req.rq_target with
  | None -> assert false (* only analyze/certify come through here *)
  | Some (Request.Suite name) -> (
    match Ipcp_suite.Registry.find name with
    | None ->
      Error
        {
          Jobs.out = "";
          err = Fmt.str "error: unknown suite program %S@." name;
          code = Jobs.exit_input;
        }
    | Some e -> Ok (name, Ipcp_suite.Registry.program e))
  | Some (Request.File path) -> (
    match Jobs.load path with
    | Error o -> Error o
    | Ok (_src, prog) -> Ok (path, prog))

(* ---------------- online certification ---------------- *)

(* The online certification policy's outcome for one response. *)
type verdict =
  | Unchecked  (** not in the seeded sample *)
  | Certified
  | Failed of Err.t  (** the typed cause, first violation located *)

(* What executing one job produces: the rendered outcome, the typed
   budget-degradation caveat for its [ok] frame (if any), and the online
   certification verdict. *)
type exec = {
  ex_out : Jobs.outcome;
  ex_typed : Err.t option;
  ex_verdict : verdict;
}

let plain out = { ex_out = out; ex_typed = None; ex_verdict = Unchecked }

(* Sound degradation is not an error, but it is a typed caveat: clients
   inspecting a degraded [ok] frame learn which budget bit without
   parsing renderer text. *)
let budget_err reasons =
  let module B = Ipcp_support.Budget in
  match reasons with
  | [] -> None
  | first :: _ ->
    let code =
      match first with
      | B.Steps _ -> "E-BUDGET-STEPS"
      | B.Deadline _ -> "E-BUDGET-DEADLINE"
    in
    Some
      (Err.budget ~code
         (Fmt.str "analysis degraded soundly: %a"
            Fmt.(list ~sep:(any "; ") B.pp_reason)
            reasons))

(* The served-solution corruption site.  Keyed on the request sequence
   number (like [serve.worker:<seq>:<k>]) so which responses are
   corrupted is a pure function of the input stream; the fuzz harness
   uses it to prove that with certification on, a corrupted solution
   never leaves the server as an [ok] frame. *)
let solution_fault_site seq = Printf.sprintf "serve.solution:%d" seq

(* ---------------- incremental sessions ---------------- *)

let session_get st key =
  Mutex.lock st.sess_mu;
  let s = Hashtbl.find_opt st.sessions key in
  Mutex.unlock st.sess_mu;
  s

let session_put st key sess =
  Mutex.lock st.sess_mu;
  Hashtbl.replace st.sessions key sess;
  Mutex.unlock st.sess_mu

(* A session is one analysis's fixpoint: its name is looked up in that
   analysis's namespace. *)
let session_key (req : Request.t) ~(config : Config.t) =
  (config.analysis, req.rq_session)

(* Serve analyze-delta: update the pinned session when one exists under
   the same configuration, otherwise start one.  The result is the same
   value a from-scratch solve would produce (the Incr layer's
   byte-identity contract), so the response frame does not depend on the
   session state — only the cost does.  The caller publishes the new
   session once it has rendered it. *)
let delta_session st (req : Request.t) ~config prog =
  let sess, stats =
    match session_get st (session_key req ~config) with
    | Some s when Config.equal (Incr.config s) config ->
      let s', stats = Incr.update ~prev:s prog in
      (s', Some stats)
    | _ -> (Incr.start config prog, None)
  in
  locked st (fun () ->
      match stats with
      | Some (s : Incr.stats) ->
        st.n.delta_updates <- st.n.delta_updates + 1;
        st.n.incr_cone_size <- st.n.incr_cone_size + s.cone_size;
        st.n.incr_procs_reused <- st.n.incr_procs_reused + s.procs_reused;
        st.n.incr_procs_resolved <- st.n.incr_procs_resolved + s.procs_resolved
      | None ->
        let total = List.length prog.Ipcp_frontend.Prog.procs in
        st.n.delta_fresh <- st.n.delta_fresh + 1;
        st.n.incr_cone_size <- st.n.incr_cone_size + total;
        st.n.incr_procs_resolved <- st.n.incr_procs_resolved + total);
  sess

(* ---- the online certification policy ---- *)

(* Apply the [serve.solution:<seq>] corruption site to a solved result
   before rendering: when armed, the served bytes really are the
   corrupted solution's, and only the online check stands between them
   and the client. *)
let corrupt_point ~seq t =
  match Fault.corruption (solution_fault_site seq) with
  | None -> t
  | Some seed -> (
    match Ipcp_certify.Certify.corrupt ~seed t with
    | Some t' -> t'
    | None -> t)

(* The online check, for the responses the seeded sample picks. *)
let verdict st ~seq (t : Driver.t) =
  if not (certify_sampled ~seed:st.cfg.seed ~rate:st.cfg.certify_sample ~seq)
  then Unchecked
  else
    let r = Ipcp_certify.Certify.check ~inject_fault:false t in
    match r.Ipcp_certify.Certify.violations with
    | [] -> Certified
    | v :: _ as vs ->
      let n = List.length vs in
      Failed
        (Err.certification
           ~loc:
             (Fmt.str "%s:%s" v.Ipcp_certify.Certify.v_proc
                (Ipcp_frontend.Loc.to_string v.Ipcp_certify.Certify.v_loc))
           ~code:v.Ipcp_certify.Certify.v_code
           (Fmt.str "%s (%d violation%s, %d obligations checked)"
              v.Ipcp_certify.Certify.v_msg n
              (if n = 1 then "" else "s")
              r.Ipcp_certify.Certify.obligations))

(* ---- the job bodies (analyze / analyze-delta / certify) ---- *)

(* Render a solved result the way the CLI's analyze does, after the
   corruption site and under the online policy. *)
let render_solved st ~seq (req : Request.t) ~config prog t =
  let t = corrupt_point ~seq t in
  {
    ex_out =
      Jobs.analyze ~certify:req.rq_certify ~solved:t ~config ~jobs:1 prog;
    ex_typed = budget_err (Driver.degraded t);
    ex_verdict = verdict st ~seq t;
  }

let analyze st ~seq req ~config prog =
  render_solved st ~seq req ~config prog
    (Driver.solve config (Driver.prepare prog))

let analyze_delta st ~seq (req : Request.t) ~config prog =
  let sess = delta_session st req ~config prog in
  let ex = render_solved st ~seq req ~config prog (Incr.result sess) in
  (* published only now: rendering fills the result's SCCP memo, which
     the next update reads, perhaps in another worker domain *)
  session_put st (session_key req ~config) sess;
  ex

let certify_op (req : Request.t) ~config ~name prog =
  (* the in-band certifier *is* this op's rendering — the online
     policy would only re-run the same check on the same solution *)
  plain
    (Jobs.certification ?fuel:req.rq_fuel ~input:req.rq_input
       ~label:(Fmt.str "%s, %s" name (Config.to_string config))
       (Driver.solve config (Driver.prepare prog)))

let run_job st ~seq (req : Request.t) : exec =
  match req.rq_op with
  | Request.Health | Request.Ping -> assert false (* answered by the reader *)
  | Request.Tables ->
    plain
      (Jobs.tables ~analysis:req.rq_analysis ~certify:req.rq_certify
         ?max_steps:req.rq_max_steps ?deadline_ms:req.rq_deadline_ms ~jobs:1 ())
  | Request.Analyze | Request.Analyze_delta | Request.Certify -> (
    match resolve_target req with
    | Error o -> plain o
    | Ok (name, prog) -> (
      let config = Request.config_of req in
      match req.rq_op with
      | Request.Analyze -> analyze st ~seq req ~config prog
      | Request.Analyze_delta -> analyze_delta st ~seq req ~config prog
      | Request.Certify -> certify_op req ~config ~name prog
      | Request.Tables | Request.Health | Request.Ping -> assert false))

(* ---------------- worker supervision ---------------- *)

let quarantined_response (req : Request.t) =
  let key = Request.input_key req in
  Request.response ~id:req.rq_id
    ~reason:(Printf.sprintf "input %s is quarantined" key)
    ~error:
      (Err.quarantined
         (Printf.sprintf
            "circuit breaker open for %s after repeated failures" key))
    Request.Quarantined

let invalid_response (pe : Request.parse_error) =
  Request.response ~id:pe.Request.pe_id ~reason:pe.Request.pe_reason
    ~error:
      (Err.request
         ~code:(Request.error_code_name pe.Request.pe_code)
         pe.Request.pe_reason)
    Request.Invalid

let oversize_response ~max_line =
  Request.response ~id:""
    ~reason:(Printf.sprintf "request line exceeds the %d byte cap" max_line)
    ~error:
      (Err.oversize
         (Printf.sprintf
            "request line exceeds the per-connection cap of %d bytes" max_line))
    Request.Invalid

let drained_line line =
  if String.trim line = "" then None
  else
    let id =
      match Request.of_line line with
      | Ok r -> r.Request.rq_id
      | Error pe -> pe.Request.pe_id
    in
    Some
      (Request.response ~id ~reason:"server is draining"
         ~error:
           (Err.draining "request line read but never admitted before drain")
         Request.Rejected)

let certification_failed_response (req : Request.t) (e : Err.t) =
  Request.response ~id:req.rq_id ~code:Jobs.exit_internal
    ~reason:"online certification failed; response withheld and input \
             quarantined"
    ~error:e Request.Certification_failed

(* Book-keeping of one online verdict, under the state mutex. *)
let note_verdict n = function
  | Unchecked -> ()
  | Certified ->
    n.cert_sampled <- n.cert_sampled + 1;
    n.cert_passed <- n.cert_passed + 1
  | Failed _ ->
    n.cert_sampled <- n.cert_sampled + 1;
    n.cert_failed <- n.cert_failed + 1

(* The worker-entry fault point, the only site [--fault-rate] arms.
   Keyed on the request sequence number — not the worker slot or wall
   clock — so which requests crash is a pure function of the input
   stream, identical at every worker count: request [seq] crashes
   exactly when one of its eight draws [serve.worker:<seq>:<k>] fires,
   which a harness predicts by making the same draws. *)
let worker_fault_point seq =
  for k = 0 to 7 do
    Fault.inject (Printf.sprintf "serve.worker:%d:%d" seq k)
  done

(* Execute one job: a crash — the job's own exception or an injected
   fault at [serve.worker:<seq>:<k>] — answers [error] for this request
   only, and the worker takes the next job at once: the exception left
   its domain intact. *)
let execute st job =
  let req = job.j_req in
  let key = Request.input_key req in
  (* test-only: IPCP_SERVE_KILL_INPUT=<fragment> fells the whole process
     with SIGKILL when executing a matching input — the deterministic
     poison pill the shard-failover harnesses drop on one shard *)
  (match st.kill_input with
  | Some frag when frag <> "" && contains ~sub:frag key ->
    Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ());
  (* test-only: IPCP_SERVE_STALL_INPUT=<fragment> is the gray twin —
     the worker sleeps past any router deadline without crashing, while
     the reader keeps answering pings; how the hedged-failover harness
     makes one shard slow-but-alive *)
  (match st.stall_input with
  | Some frag when frag <> "" && contains ~sub:frag key ->
    Unix.sleepf (float_of_int st.stall_ms /. 1000.)
  | _ -> ());
  let decision =
    (* a probe admitted by the reader already holds the half-open slot;
       deciding again here would deny it against its own probe *)
    if job.j_probe then `Run true else breaker_decide st key
  in
  match decision with
  | `Deny ->
    locked st (fun () -> st.n.quarantined <- st.n.quarantined + 1);
    respond st job.j_outlet (quarantined_response req)
  | `Run _probe -> (
    match
      worker_fault_point job.j_seq;
      run_job st ~seq:job.j_seq req
    with
    | { ex_verdict = Failed e as v; _ } ->
      (* never emitted as [ok]: the rendered outcome is discarded, the
         client gets the typed terminal frame, and the input is
         quarantined — serving it again would serve the same corruption *)
      breaker_trip st key;
      locked st (fun () -> note_verdict st.n v);
      respond st job.j_outlet (certification_failed_response req e)
    | o ->
      breaker_note st key false;
      locked st (fun () ->
          note_verdict st.n o.ex_verdict;
          st.n.completed <- st.n.completed + 1);
      respond st job.j_outlet
        (Request.response ~id:req.rq_id ~code:o.ex_out.Jobs.code
           ~stdout:o.ex_out.Jobs.out ~stderr:o.ex_out.Jobs.err
           ?error:o.ex_typed Request.Ok_done)
    | exception e ->
      breaker_note st key true;
      locked st (fun () -> st.n.errors <- st.n.errors + 1);
      respond st job.j_outlet
        (Request.response ~id:req.rq_id ~code:Jobs.exit_internal
           ~reason:(Printexc.to_string e)
           ~error:(Err.worker_crash (Printexc.to_string e))
           Request.Error_crash))

let worker st () =
  let rec loop () =
    let next =
      locked st (fun () ->
          let rec wait () =
            match Bqueue.pop st.queue with
            | Some j ->
              (* this pop freed a slot of a full queue: the event loop
                 may be holding stdio lines for exactly that room *)
              if Bqueue.length st.queue = Bqueue.capacity st.queue - 1 then (
                try ignore (Unix.single_write_substring st.wake_w "!" 0 1)
                with Unix.Unix_error _ -> ());
              Some j
            | None ->
              if st.draining then None
              else begin
                Condition.wait st.cond st.mu;
                wait ()
              end
          in
          wait ())
    in
    match next with
    | None -> ()
    | Some job ->
      execute st job;
      loop ()
  in
  loop ()

(* ---------------- admission (reader side) ---------------- *)

let handle_line st ~outlet ~seq line =
  if String.trim line <> "" then begin
    owe outlet;
    locked st (fun () -> st.n.received <- st.n.received + 1);
    match Request.of_line line with
    | Error pe ->
      locked st (fun () -> st.n.invalid <- st.n.invalid + 1);
      respond st outlet (invalid_response pe)
    | Ok req -> (
      match req.rq_op with
      | Request.Health ->
        (* answered inline: health must work under full queues *)
        let doc = health_doc st in
        respond st outlet
          (Request.response ~id:req.rq_id ~code:0 ~health:doc Request.Ok_done)
      | Request.Ping ->
        (* answered inline like health: a pong proves the process is
           alive and reading even when every worker is busy or stalled —
           exactly the liveness signal the router's heartbeats probe *)
        respond st outlet
          (Request.response ~id:req.rq_id ~code:0 Request.Ok_done)
      | _ -> (
        let key = Request.input_key req in
        match breaker_decide st key with
        | `Deny ->
          locked st (fun () -> st.n.quarantined <- st.n.quarantined + 1);
          respond st outlet (quarantined_response req)
        | `Run probe -> (
          let admit =
            locked st (fun () ->
                let a =
                  Bqueue.push st.queue
                    { j_seq = seq; j_req = req; j_probe = probe;
                      j_outlet = outlet }
                in
                (match a with
                | Bqueue.Enqueued | Bqueue.Displaced _ ->
                  Condition.signal st.cond
                | Bqueue.Rejected -> ());
                a)
          in
          match admit with
          | Bqueue.Enqueued -> ()
          | Bqueue.Rejected ->
            locked st (fun () -> st.n.rejected <- st.n.rejected + 1);
            respond st outlet
              (Request.response ~id:req.rq_id
                 ~reason:"queue full (reject-new)"
                 ~error:
                   (Err.rejected
                      "admission queue at capacity under the reject-new \
                       policy")
                 Request.Rejected)
          | Bqueue.Displaced old ->
            locked st (fun () ->
                st.n.shed <- st.n.shed + 1;
                (* a shed probe never executes: release the half-open
                   slot so the breaker can probe again later *)
                if old.j_probe then
                  Option.iter
                    (fun e -> e.bk_probing <- false)
                    (Hashtbl.find_opt st.breaker
                       (Request.input_key old.j_req)));
            respond st old.j_outlet
              (Request.response ~id:old.j_req.Request.rq_id
                 ~reason:"displaced from a full queue (drop-oldest)"
                 ~error:
                   (Err.shed
                      "displaced by a newer request under the drop-oldest \
                       policy")
                 Request.Shed))))
  end

(* A request line that was read but never admitted (the server began
   draining first) still gets its terminal frame. *)
let reject_drained st ~outlet line =
  Option.iter
    (fun r ->
      owe outlet;
      locked st (fun () ->
          st.n.received <- st.n.received + 1;
          st.n.rejected <- st.n.rejected + 1);
      respond st outlet r)
    (drained_line line)

(* ---------------- startup and shutdown ---------------- *)

let make_state config =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    cfg = config;
    mu = Mutex.create ();
    cond = Condition.create ();
    queue =
      Bqueue.create ~capacity:config.queue_capacity
        ~policy:config.queue_policy;
    wake_r;
    wake_w;
    draining = false;
    breaker = Hashtbl.create 16;
    sess_mu = Mutex.create ();
    sessions = Hashtbl.create 4;
    n =
      {
        received = 0;
        completed = 0;
        errors = 0;
        cert_failed = 0;
        shed = 0;
        rejected = 0;
        quarantined = 0;
        invalid = 0;
        cert_sampled = 0;
        cert_passed = 0;
        delta_updates = 0;
        delta_fresh = 0;
        incr_cone_size = 0;
        incr_procs_reused = 0;
        incr_procs_resolved = 0;
        conns_accepted = 0;
        client_gone = 0;
        req_oversize = 0;
        req_timeout = 0;
      };
    kill_input = Sys.getenv_opt "IPCP_SERVE_KILL_INPUT";
    stall_input = Sys.getenv_opt "IPCP_SERVE_STALL_INPUT";
    stall_ms =
      (match
         Option.bind (Sys.getenv_opt "IPCP_SERVE_STALL_MS") int_of_string_opt
       with
      | Some n when n > 0 -> n
      | _ -> 2000);
  }

(* Pre-resolve every suite program in this domain: the registry's memo
   table is not synchronized, so the workers must only ever read it. *)
let prewarm_registry () =
  List.iter
    (fun e -> ignore (Ipcp_suite.Registry.program e))
    Ipcp_suite.Registry.entries

(* After the drain barrier the counters are final — a health snapshot
   written here is deterministic for a deterministic request stream,
   unlike in-stream health answers that race the workers. *)
let write_health_out st =
  match st.cfg.health_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Ipcp_telemetry.Json.to_string (health_doc st));
        output_char oc '\n')

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ---------------- the event loop ---------------- *)

(* One connection of the event loop: the stdio connection of [run], or a
   client accepted by [run_listen]. *)
type conn = {
  c_fd : Unix.file_descr;
  c_outlet : outlet;
  c_stdio : bool;
      (** a full queue pauses this connection's reads instead of shedding
          its lines; it has no read deadline, and its end of input ends
          the service *)
  c_framer : Transport.Framing.t;
  c_held : Transport.Framing.event Queue.t;
      (** framed but not yet handled: stdio lines wait here for room in
          the admission queue (a socket's are handled at once) *)
  mutable c_partial_since : float option;
      (** when the currently buffered partial request line began — the
          read deadline's clock, armed only while a request is pending *)
  mutable c_stop_read : bool;
      (** EOF seen, or the connection was refused (oversize/timeout) *)
}

let tail_pending c =
  match c.c_outlet.ol_dest with
  | `Sock ob -> Transport.Outbuf.pending ob
  | `Channel _ -> false

let readable_now fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | ready, _, _ -> ready <> []
  | exception Unix.Unix_error _ -> false

(* The one select loop behind [run] and [run_listen].  Concurrency comes
   from the worker domains; the loop frames lines, admits them, answers
   health and ping inline and services socket write tails.  It runs until
   SIGTERM/SIGINT or the stdio connection's end of input, then answers
   typed drain rejections for lines read but never admitted, finishes
   queued work and flushes.  Never switches a stdio fd to non-blocking
   mode: fds 0 and 1 are shared with the parent shell. *)
let serve config ~listener ~stdio =
  let config = { config with workers = max 1 config.workers } in
  let st = make_state config in
  prewarm_registry ();
  with_signals @@ fun () ->
  let workers = Array.init config.workers (fun _ -> Domain.spawn (worker st)) in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let add_conn ~stdio fd dest =
    let c =
      {
        c_fd = fd;
        c_outlet = outlet dest;
        c_stdio = stdio;
        c_framer = Transport.Framing.create ~max_line:config.max_line;
        c_held = Queue.create ();
        c_partial_since = None;
        c_stop_read = false;
      }
    in
    Hashtbl.replace conns fd c;
    c
  in
  let stdio_conn =
    Option.map
      (fun (input, output) -> add_conn ~stdio:true input (`Channel output))
      stdio
  in
  let chunk = Bytes.create 4096 in
  let seq = ref 0 in
  (* conservation for a refused line that never parsed: one owed, typed
     [invalid] frame, then no more reads from this peer *)
  let refuse c ~count response =
    locked st (fun () ->
        st.n.received <- st.n.received + 1;
        st.n.invalid <- st.n.invalid + 1;
        count st.n);
    owe c.c_outlet;
    respond st c.c_outlet response;
    c.c_stop_read <- true
  in
  let refuse_oversize c =
    refuse c
      ~count:(fun n -> n.req_oversize <- n.req_oversize + 1)
      (oversize_response ~max_line:config.max_line)
  in
  let refuse_timeout c =
    refuse c
      ~count:(fun n -> n.req_timeout <- n.req_timeout + 1)
      (Request.response ~id:""
         ~reason:
           (Printf.sprintf
              "read deadline (%d ms) expired with a partial request buffered"
              config.read_timeout_ms)
         ~error:
           (Err.timed_out
              (Printf.sprintf
                 "no complete request line within %d ms of the first partial \
                  byte"
                 config.read_timeout_ms))
         Request.Invalid)
  in
  let room () =
    locked st (fun () -> Bqueue.length st.queue < Bqueue.capacity st.queue)
  in
  (* Hand held events to admission in order.  Only the loop pushes, so a
     stdio line admitted with room can never be rejected: stdio gets
     backpressure, and only socket connections shed.  Once draining,
     every line gets its typed drain rejection instead. *)
  let pump c =
    while
      (not (Queue.is_empty c.c_held))
      && (st.draining || (not c.c_stdio) || room ())
    do
      match Queue.pop c.c_held with
      | Transport.Framing.Line l when st.draining ->
        reject_drained st ~outlet:c.c_outlet l
      | Transport.Framing.Line l ->
        handle_line st ~outlet:c.c_outlet ~seq:!seq l;
        incr seq
      | Transport.Framing.Oversize -> refuse_oversize c
    done
  in
  let note_events c events =
    List.iter (fun e -> Queue.add e c.c_held) events;
    pump c;
    c.c_partial_since <-
      (if Transport.Framing.partial c.c_framer then
         match c.c_partial_since with
         | Some _ as t -> t
         | None -> Some (Unix.gettimeofday ())
       else None)
  in
  let conn_eof c ~broken =
    c.c_stop_read <- true;
    c.c_partial_since <- None;
    if broken && not c.c_stdio then begin
      Mutex.lock c.c_outlet.ol_mu;
      c.c_outlet.ol_dead <- true;
      Mutex.unlock c.c_outlet.ol_mu
    end;
    if not broken then
      (* a final line without a trailing newline is still a request *)
      Option.iter
        (fun l -> note_events c [ Transport.Framing.Line l ])
        (Transport.Framing.finish c.c_framer)
  in
  let accept_one listener =
    match Unix.accept ~cloexec:true listener with
    | exception
        Unix.Unix_error
          ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      ()
    | fd, _ ->
      (* a peer that stops reading must stall its own responses, not a
         worker domain forever: the outbuf makes every response write
         nonblocking — kernel-refused tails are buffered and resumed
         from this loop, and a peer that outgrows the tail cap is
         declared gone (counted E-LOAD-GONE) *)
      locked st (fun () -> st.n.conns_accepted <- st.n.conns_accepted + 1);
      ignore (add_conn ~stdio:false fd (`Sock (Transport.Outbuf.create fd)))
  in
  let handle_read c =
    match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* interrupted, or a nonblocking socket raced empty *)
      ()
    | exception Unix.Unix_error _ -> conn_eof c ~broken:true
    | 0 -> conn_eof c ~broken:false
    | n ->
      note_events c
        (Transport.Framing.feed c.c_framer (Bytes.sub_string chunk 0 n))
  in
  (* the peer stopped reading and its buffered response tail outgrew the
     cap, or the resumed write failed hard: charge the loss once *)
  let outbuf_gone c =
    Mutex.lock c.c_outlet.ol_mu;
    let fresh = not c.c_outlet.ol_dead in
    if fresh then c.c_outlet.ol_dead <- true;
    Mutex.unlock c.c_outlet.ol_mu;
    if fresh then begin
      locked st (fun () -> st.n.client_gone <- st.n.client_gone + 1);
      log_line
        (Request.response_to_line
           (Request.response ~id:""
              ~reason:
                "client connection gone with buffered response bytes \
                 undelivered"
              ~error:
                (Err.gone
                   "buffered response tail undeliverable: peer closed or \
                    stopped reading")
              Request.Error_crash))
    end
  in
  let service fd =
    match Hashtbl.find_opt conns fd with
    | Some ({ c_outlet = { ol_dest = `Sock ob; _ }; _ } as c) -> (
      match Transport.Outbuf.service ob with
      | `Ok | `Buffered -> ()
      | `Dead -> outbuf_gone c)
    | _ -> ()
  in
  let tails () =
    Hashtbl.fold
      (fun fd c acc -> if tail_pending c then fd :: acc else acc)
      conns []
  in
  let check_deadlines () =
    if config.read_timeout_ms > 0 then begin
      let now = Unix.gettimeofday () in
      let limit = float_of_int config.read_timeout_ms /. 1000.0 in
      Hashtbl.iter
        (fun _ c ->
          match c.c_partial_since with
          | Some t0
            when (not c.c_stop_read) && (not c.c_stdio) && now -. t0 > limit ->
            c.c_partial_since <- None;
            refuse_timeout c
          | _ -> ())
        conns
    end
  in
  (* close a socket connection only when its conservation account is
     settled: the peer finished submitting (or died) and every owed
     terminal response has been written (or charged to E-LOAD-GONE) —
     bytes included, so hold the fd until a buffered tail lands too *)
  let sweep_closed () =
    let closable =
      Hashtbl.fold
        (fun fd c acc ->
          Mutex.lock c.c_outlet.ol_mu;
          let close_now =
            (not c.c_stdio)
            && (c.c_stop_read || c.c_outlet.ol_dead)
            && c.c_outlet.ol_pending = 0
          in
          Mutex.unlock c.c_outlet.ol_mu;
          if close_now && not (tail_pending c) then fd :: acc else acc)
        conns []
    in
    List.iter
      (fun fd ->
        Hashtbl.remove conns fd;
        close_quiet fd)
      closable
  in
  let wants_read c =
    (not c.c_stop_read)
    && Queue.is_empty c.c_held
    && ((not c.c_stdio) || room ())
  in
  let input_done () =
    match stdio_conn with
    | Some c -> c.c_stop_read && Queue.is_empty c.c_held
    | None -> false
  in
  let round read_fds =
    match Unix.select read_fds (tails ()) [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, writable, _ ->
      List.iter service writable;
      List.iter
        (fun fd ->
          if fd == st.wake_r then (
            try ignore (Unix.read st.wake_r chunk 0 (Bytes.length chunk))
            with Unix.Unix_error _ -> ())
          else
            match (listener, Hashtbl.find_opt conns fd) with
            | Some l, _ when fd == l -> accept_one l
            | _, Some c when not c.c_stop_read -> handle_read c
            | _ -> ())
        ready
  in
  let rec loop () =
    (* a worker may have freed room for held stdio lines *)
    Option.iter pump stdio_conn;
    if not (stopping () || input_done ()) then begin
      round
        ((st.wake_r :: Option.to_list listener)
        @ Hashtbl.fold
            (fun fd c acc -> if wants_read c then fd :: acc else acc)
            conns []);
      check_deadlines ();
      sweep_closed ();
      loop ()
    end
  in
  loop ();
  locked st (fun () ->
      st.draining <- true;
      Condition.broadcast st.cond);
  (* lines held or already in flight on the wire were submitted, so
     they get typed drain rejections instead of silence: read what is
     readable now (up to 1 MiB, polled with a zero-timeout select), and
     treat a trailing partial line as the last request *)
  Hashtbl.iter
    (fun _ c ->
      pump c;
      let rec drain_reads k =
        if k > 0 && (not c.c_stop_read) && readable_now c.c_fd then begin
          handle_read c;
          drain_reads (k - 1)
        end
      in
      drain_reads 256;
      if not c.c_stop_read then conn_eof c ~broken:false)
    conns;
  Array.iter Domain.join workers;
  (* the drain rejections above may have landed in outbufs: give the
     buffered tails a bounded window to reach their peers *)
  let flush_deadline = Unix.gettimeofday () +. 2.0 in
  while tails () <> [] && Unix.gettimeofday () < flush_deadline do
    round []
  done;
  Hashtbl.iter (fun fd c -> if not c.c_stdio then close_quiet fd) conns;
  List.iter close_quiet (st.wake_r :: st.wake_w :: Option.to_list listener);
  write_health_out st;
  match stdio_conn with
  | Some c when c.c_outlet.ol_dead -> Jobs.exit_input
  | _ -> 0

let run ?(config = default_config) ~input ~output () =
  serve config ~listener:None ~stdio:(Some (input, output))

let run_listen ?(config = default_config) ~addr () =
  let listener = Transport.listen addr in
  Fun.protect
    ~finally:(fun () -> Transport.unlink_addr addr)
    (fun () -> serve config ~listener:(Some listener) ~stdio:None)
