(* ipcp — interprocedural constant propagation for MiniFort programs.

   Subcommands:
   - analyze: run the analyzer on a source file and report CONSTANTS sets,
     optionally emitting the constant-substituted source;
   - run: execute a program under the reference interpreter;
   - certify: independently re-check a solved analysis (and --certify on
     analyze/tables does the same after their normal work);
   - tables: regenerate the paper's Tables 1-3 on the bundled suite;
   - characteristics: Table 1 only;
   - generate: emit a random workload program;
   - serve: long-lived request processing over stdin or a FIFO.

   Exit codes:
   - 0: success;
   - 2: usage error (unknown flag, bad argument — cmdliner's own);
   - 3: input error (unreadable file, diagnostics in the program, runtime
     failure or fuel exhaustion of the interpreted program, lint
     violations, or a broken output pipe — `ipcp tables | head` exits 3,
     it does not die with a signal);
   - 4: internal error (a bug in ipcp itself, including a certification
     failure — a published solution the independent checker rejects).

   The job bodies of analyze/tables/certify live in Ipcp_serve.Jobs and
   render to strings; this file prints them.  The serve subcommand sends
   the same strings as response frames, which is what makes server
   responses byte-identical to direct CLI output. *)

open Cmdliner
open Ipcp_core
open Ipcp_telemetry
module Jobs = Ipcp_serve.Jobs

let exit_input = Jobs.exit_input
let exit_internal = Jobs.exit_internal

(* Print one rendered job outcome: stdout, then stderr, each flushed, so
   interleaving with any direct printing around it is preserved. *)
let emit (o : Jobs.outcome) =
  Fmt.pr "%s@?" o.out;
  Fmt.epr "%s@?" o.err;
  o.code

(* ---------------- shared options ---------------- *)

let kind_conv =
  let parse = function
    | "literal" -> Ok Jump_function.Literal
    | "intraconst" -> Ok Jump_function.Intraconst
    | "passthrough" -> Ok Jump_function.Passthrough
    | "polynomial" -> Ok Jump_function.Polynomial
    | s -> Error (`Msg (Fmt.str "unknown jump function %S" s))
  in
  Arg.conv (parse, fun ppf k -> Fmt.string ppf (Jump_function.kind_name k))

let jf_kind =
  let doc =
    "Forward jump function: $(b,literal), $(b,intraconst), $(b,passthrough) \
     or $(b,polynomial)."
  in
  Arg.(
    value
    & opt kind_conv Jump_function.Passthrough
    & info [ "j"; "jump-function" ] ~docv:"KIND" ~doc)

let no_return_jfs =
  let doc = "Disable return jump functions." in
  Arg.(value & flag & info [ "no-return-jfs" ] ~doc)

let no_mod =
  let doc =
    "Disable interprocedural MOD summaries (worst-case call effects)."
  in
  Arg.(value & flag & info [ "no-mod" ] ~doc)

let intra_only =
  let doc = "Purely intraprocedural propagation (the paper's baseline)." in
  Arg.(value & flag & info [ "intra-only" ] ~doc)

let analysis_arg =
  let doc =
    "Lattice to propagate: $(b,const) (constant propagation, the paper's \
     analysis) or $(b,copy) (copy propagation — finds the same constants \
     plus pure copy facts, subsuming $(b,const))."
  in
  Arg.(value & opt string "const" & info [ "analysis" ] ~docv:"ANALYSIS" ~doc)

(* Validated in the command bodies rather than by an [Arg.enum]
   converter, so an unknown value is a usage error (exit 2) like any
   other, not cmdliner's converter exit code. *)
let with_analysis_arg analysis (k : Config.analysis -> int) : int =
  match analysis with
  | "const" -> k `Const
  | "copy" -> k `Copy
  | s ->
    Fmt.epr
      "usage error: unknown --analysis %S, expected either 'const' or 'copy'@."
      s;
    2

let max_steps_arg =
  let doc =
    "Step budget per analysis pass (worklist visits).  An exhausted pass \
     widens its remaining work to $(b,bottom) and reports itself degraded \
     — results stay sound but may miss constants."
  in
  Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N" ~doc)

let deadline_ms_arg =
  let doc =
    "Wall-clock budget per analysis pass, in milliseconds; degradation \
     behaves as for $(b,--max-steps)."
  in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let config_of ?(analysis = `Const) kind no_ret no_mod intra max_steps
    deadline_ms =
  let base =
    if intra then Config.intraprocedural_only
    else Config.make ~kind ~return_jfs:(not no_ret) ~use_mod:(not no_mod) ()
  in
  Config.with_analysis analysis (Config.with_budget ?max_steps ?deadline_ms base)

let jobs_arg =
  let doc =
    "Number of worker domains for parallelizable stages ($(b,1) = fully \
     sequential).  Results are deterministic: the output is byte-identical \
     for every $(docv).  Defaults to 1, which measured faster than more \
     domains."
  in
  Arg.(
    value
    & opt int (Ipcp_engine.Engine.default_jobs ())
    & info [ "jobs" ] ~docv:"N" ~doc)

(* A plain string, not [Arg.file]: an unreadable path is an input error
   (exit 3, reported by [load]), not a usage error. *)
let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"MiniFort source file.")

(* ---------------- profiling options ---------------- *)

let profile_flag =
  let doc =
    "Collect pipeline telemetry (phase timings, solver counters, \
     jump-function evaluation counts) and print a summary to stderr.  \
     Standard output is unaffected."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let profile_json_arg =
  let doc =
    "Collect pipeline telemetry and write the machine-readable JSON profile \
     document (schema $(b,ipcp.profile/1)) to $(docv)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-json" ] ~docv:"FILE" ~doc)

(* Run [f] under a telemetry collector when profiling was requested; emit
   the human summary on stderr and/or the JSON document afterwards. *)
let with_profiling profile profile_json f =
  if (not profile) && profile_json = None then f ()
  else begin
    let t = Telemetry.create () in
    let r = Telemetry.with_reporter t f in
    if profile then Fmt.epr "%a@?" Telemetry.pp_summary t;
    match profile_json with
    | None -> r
    | Some path -> (
      try
        Telemetry.write_json path t;
        r
      with Sys_error m ->
        Fmt.epr "error: cannot write profile document: %s@." m;
        exit_input)
  end

(* ---------------- certification helpers ---------------- *)

let certify_flag =
  let doc =
    "After the normal work, independently re-certify the solved analysis \
     (fixpoint, MOD, SCCP and execution-witness obligations); exits with \
     status 4 when any obligation fails."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let substitute_out =
    let doc = "Write the constant-substituted source to $(docv)." in
    Arg.(value & opt (some string) None & info [ "substitute" ] ~docv:"OUT" ~doc)
  in
  let complete =
    let doc = "Iterate propagation with dead-code elimination to a fixpoint." in
    Arg.(value & flag & info [ "complete" ] ~doc)
  in
  let verbose =
    let doc = "Also dump MOD/REF summaries and the call graph." in
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
  in
  let against =
    let doc =
      "Analyze incrementally against baseline source $(docv): solve \
       $(docv) from scratch, then update it to $(i,FILE), copying what \
       the edit left unchanged and keeping the fixpoint of $(docv) when \
       no jump function, arity or load-time value changed.  The report \
       is byte-identical to a from-scratch analyze of $(i,FILE); a \
       summary of the update goes to stderr."
    in
    Arg.(value & opt (some string) None & info [ "against" ] ~docv:"PREV" ~doc)
  in
  let run file analysis kind no_ret no_mod intra max_steps deadline_ms
      substitute_out complete verbose jobs certify against profile profile_json
      =
    with_analysis_arg analysis @@ fun analysis ->
    with_profiling profile profile_json @@ fun () ->
    match Jobs.load file with
    | Error o -> emit o
    | Ok (_src, prog) -> (
      let config =
        config_of ~analysis kind no_ret no_mod intra max_steps deadline_ms
      in
      match against with
      | None ->
        emit
          (Jobs.analyze ~verbose ~complete ~certify ?substitute_out ~config
             ~jobs prog)
      | Some prev_file -> (
        match Jobs.load prev_file with
        | Error o -> emit o
        | Ok (_prev_src, prev_prog) ->
          let module Incr = Ipcp_incr.Incr in
          let prev = Incr.start config prev_prog in
          let sess, stats = Incr.update ~prev prog in
          let code =
            emit
              (Jobs.analyze ~verbose ~complete ~certify ?substitute_out
                 ~session:sess ~config ~jobs prog)
          in
          Fmt.epr "--- incremental: %a@." Incr.pp_stats stats;
          code))
  in
  let doc = "Analyze a program and report its interprocedural constants." in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      const run $ file_arg $ analysis_arg $ jf_kind $ no_return_jfs $ no_mod
      $ intra_only $ max_steps_arg $ deadline_ms_arg $ substitute_out
      $ complete $ verbose $ jobs_arg $ certify_flag $ against $ profile_flag
      $ profile_json_arg)

(* ---------------- certify ---------------- *)

let certify_cmd =
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"MiniFort source file to certify.")
  in
  let suite =
    let doc = "Certify every program of the bundled benchmark suite." in
    Arg.(value & flag & info [ "suite" ] ~doc)
  in
  let all_configs =
    let doc =
      "Sweep the full configuration matrix (the six Table 2 configurations, \
       the polynomial ±MOD presets and the intraprocedural baseline) instead \
       of the single configuration selected by the flags."
    in
    Arg.(value & flag & info [ "all-configs" ] ~doc)
  in
  let inject_error =
    let doc =
      "Deliberately falsify one solution binding (seeded) before checking; \
       the run must then FAIL certification — a self-test that the checker \
       actually rejects bad solutions."
    in
    Arg.(value & opt (some int) None & info [ "inject-error" ] ~docv:"SEED" ~doc)
  in
  let input =
    let doc =
      "Comma-separated integers consumed by $(b,read) statements of the \
       interpreter witness."
    in
    Arg.(value & opt (list int) [] & info [ "input" ] ~docv:"INTS" ~doc)
  in
  let fuel =
    let doc = "Interpreter witness step budget." in
    Arg.(
      value
      & opt int Ipcp_interp.Interp.default_fuel
      & info [ "fuel" ] ~docv:"N" ~doc)
  in
  (* Certify one prepared program under one configuration; returns [true]
     when the verdict matches expectations (certified, or rejected under
     --inject-error). *)
  let certify_one ~fuel ~input ~inject_error t label =
    match inject_error with
    | None -> emit (Jobs.certification ~fuel ~input ~label t) = 0
    | Some seed -> (
      match Ipcp_certify.Certify.corrupt ~seed t with
      | None ->
        Fmt.epr
          "inject-error [%s]: solution has no corruptible binding (nothing \
           to falsify)@."
          label;
        false
      | Some bad ->
        let r = Ipcp_certify.Certify.check ~fuel ~input bad in
        if Ipcp_certify.Certify.ok r then begin
          Fmt.epr
            "inject-error [%s]: corrupted solution was NOT rejected — the \
             certifier missed an injected error@."
            label;
          false
        end
        else begin
          Fmt.pr "--- injected error rejected [%s]:@." label;
          Fmt.pr "%a@?" Ipcp_support.Diagnostics.pp
            (Ipcp_certify.Certify.to_diagnostics r);
          true
        end)
  in
  let run file suite all_configs inject_error analysis kind no_ret no_mod
      intra max_steps deadline_ms input fuel profile profile_json =
    with_analysis_arg analysis @@ fun analysis ->
    with_profiling profile profile_json @@ fun () ->
    let targets =
      match (file, suite) with
      | None, false -> Error `Usage
      | _ ->
        let from_suite =
          if suite then
            List.map
              (fun (e : Ipcp_suite.Registry.entry) ->
                Ok (e.name, Ipcp_suite.Registry.program e))
              Ipcp_suite.Registry.entries
          else []
        in
        let from_file =
          match file with
          | None -> []
          | Some path -> (
            match Jobs.load path with
            | Ok (_src, prog) -> [ Ok (path, prog) ]
            | Error o -> [ Error (`Load o) ])
        in
        Ok (from_file @ from_suite)
    in
    match targets with
    | Error `Usage ->
      Fmt.epr "usage error: give a FILE, --suite, or both@.";
      2
    | Ok targets ->
      let configs =
        if all_configs then
          List.map
            (fun (l, c) -> (l, Config.with_analysis analysis c))
            Ipcp_certify.Certify.default_configs
        else
          let c =
            config_of ~analysis kind no_ret no_mod intra max_steps deadline_ms
          in
          [ (Config.to_string c, c) ]
      in
      let ok = ref true in
      let input_error = ref false in
      List.iter
        (fun target ->
          match target with
          | Error (`Load o) ->
            ignore (emit o);
            input_error := true
          | Ok (name, prog) ->
            let prep = Driver.prepare prog in
            List.iter
              (fun (clabel, config) ->
                let label = Fmt.str "%s, %s" name clabel in
                let good =
                  certify_one ~fuel ~input ~inject_error
                    (Driver.solve config prep) label
                in
                if not good then ok := false)
              configs)
        targets;
      if !input_error then exit_input
      else if !ok then 0
      else exit_internal
  in
  let doc =
    "Independently re-certify a solved analysis: re-check the fixpoint per \
     call edge, entry seeding, call-site coverage, MOD containment, SCCP \
     transfer consistency, and witness every published constant against the \
     reference interpreter.  Exits 4 when any obligation fails."
  in
  Cmd.v
    (Cmd.info "certify" ~doc)
    Term.(
      const run $ file $ suite $ all_configs $ inject_error $ analysis_arg
      $ jf_kind $ no_return_jfs $ no_mod $ intra_only $ max_steps_arg
      $ deadline_ms_arg $ input $ fuel $ profile_flag $ profile_json_arg)

(* ---------------- run ---------------- *)

let run_cmd =
  let input =
    let doc = "Comma-separated integers consumed by $(b,read) statements." in
    Arg.(value & opt (list int) [] & info [ "input" ] ~docv:"INTS" ~doc)
  in
  let fuel =
    let doc =
      "Interpreter step budget (default: the interpreter's built-in limit)."
    in
    Arg.(
      value
      & opt int Ipcp_interp.Interp.default_fuel
      & info [ "fuel" ] ~docv:"N" ~doc)
  in
  let run file input fuel =
    match Jobs.load file with
    | Error o -> emit o
    | Ok (_src, prog) -> (
      let r = Ipcp_interp.Interp.run ~fuel ~input ~trace_entries:false prog in
      List.iter print_endline r.outputs;
      match r.outcome with
      | Ipcp_interp.Interp.Finished -> 0
      | Out_of_fuel ->
        Fmt.epr
          "error: interpreter ran out of fuel after %d steps (the program \
           may diverge; raise the limit with --fuel)@."
          r.steps;
        exit_input
      | Failed m ->
        Fmt.epr "runtime error: %s@." m;
        exit_input)
  in
  let doc = "Execute a program under the reference interpreter." in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ file_arg $ input $ fuel)

(* ---------------- lint ---------------- *)

let lint_cmd =
  let run file =
    match Jobs.load file with
    | Error o -> emit o
    | Ok (_src, prog) -> (
      match Alias_check.check prog with
      | [] ->
        Fmt.pr "no argument-aliasing violations found@.";
        0
      | vs ->
        List.iter (fun v -> Fmt.pr "%a@." Alias_check.pp_violation v) vs;
        Fmt.pr "%d violation(s): interprocedural constant propagation is \
                only sound for conforming programs@."
          (List.length vs);
        exit_input)
  in
  let doc =
    "Check a program for FORTRAN argument-aliasing violations (the analyzer \
     assumes conforming programs)."
  in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const run $ file_arg)

(* ---------------- tables / characteristics ---------------- *)

let tables_cmd =
  let run analysis jobs max_steps deadline_ms certify profile profile_json =
    with_analysis_arg analysis @@ fun analysis ->
    with_profiling profile profile_json @@ fun () ->
    emit (Jobs.tables ~analysis ~certify ?max_steps ?deadline_ms ~jobs ())
  in
  let doc = "Regenerate the paper's Tables 1, 2 and 3 on the bundled suite." in
  Cmd.v
    (Cmd.info "tables" ~doc)
    Term.(
      const run $ analysis_arg $ jobs_arg $ max_steps_arg $ deadline_ms_arg
      $ certify_flag
      $ profile_flag $ profile_json_arg)

let characteristics_cmd =
  let run profile profile_json =
    with_profiling profile profile_json @@ fun () ->
    Fmt.pr "%a@." Ipcp_suite.Metrics.pp_table1 ();
    0
  in
  let doc = "Print the suite characteristics (Table 1)." in
  Cmd.v
    (Cmd.info "characteristics" ~doc)
    Term.(const run $ profile_flag $ profile_json_arg)

(* ---------------- generate ---------------- *)

let generate_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  let procs =
    Arg.(
      value & opt int 6 & info [ "procs" ] ~docv:"N" ~doc:"Number of procedures.")
  in
  let globals =
    Arg.(
      value & opt int 3
      & info [ "globals" ] ~docv:"N" ~doc:"Number of common globals.")
  in
  let stmts =
    Arg.(
      value & opt int 8
      & info [ "stmts" ] ~docv:"N" ~doc:"Statements per procedure.")
  in
  let run seed procs globals stmts =
    let spec =
      {
        Ipcp_suite.Workload.default_spec with
        seed;
        num_procs = procs;
        num_globals = globals;
        stmts_per_proc = stmts;
      }
    in
    print_string (Ipcp_suite.Workload.generate spec);
    0
  in
  let doc = "Emit a random MiniFort workload program." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(const run $ seed $ procs $ globals $ stmts)

(* ---------------- serve ---------------- *)

let serve_cmd =
  let open Ipcp_serve in
  let workers =
    let doc = "Worker domains executing requests." in
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue =
    let doc =
      "Admission queue capacity.  While it is full, standard input is not \
       read (the pipe backs up the writer); a socket connection's overflow \
       is shed according to $(b,--queue-policy) as typed \
       $(b,rejected)/$(b,shed) frames, never a hang."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let queue_policy =
    let doc =
      "Load-shedding policy of a full queue: $(b,reject-new) refuses the \
       incoming request, $(b,drop-oldest) sheds the oldest queued one."
    in
    Arg.(
      value
      & opt
          (Arg.enum
             [
               ("reject-new", Bqueue.Reject_new);
               ("drop-oldest", Bqueue.Drop_oldest);
             ])
          Bqueue.Reject_new
      & info [ "queue-policy" ] ~docv:"POLICY" ~doc)
  in
  let breaker =
    let doc =
      "Quarantine an input after $(docv) consecutive worker crashes \
       (circuit breaker); 0 disables."
    in
    Arg.(value & opt int 3 & info [ "breaker" ] ~docv:"N" ~doc)
  in
  let backoff_ms =
    let doc = "First worker-restart delay after a crash, in milliseconds." in
    Arg.(value & opt int 10 & info [ "backoff-ms" ] ~docv:"MS" ~doc)
  in
  let backoff_cap_ms =
    let doc = "Exponential restart-backoff ceiling, in milliseconds." in
    Arg.(value & opt int 1000 & info [ "backoff-cap-ms" ] ~docv:"MS" ~doc)
  in
  let seed =
    let doc =
      "Seed of the deterministic restart-backoff jitter and of the \
       online-certification sample."
    in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let breaker_reset_after =
    let doc =
      "Half-open the circuit breaker after $(docv) quarantined denials: \
       the next request for the input runs as a probe, and a successful \
       probe closes the breaker.  0 (the default) quarantines forever."
    in
    Arg.(value & opt int 0 & info [ "breaker-reset-after" ] ~docv:"N" ~doc)
  in
  let certify_sample =
    let doc =
      "Online-certify this fraction of analyze/analyze-delta responses \
       before emitting them, chosen deterministically per (seed, request \
       sequence number).  A response that fails certification is never \
       sent as ok: it becomes a typed certification_failed frame and the \
       input is quarantined."
    in
    Arg.(value & opt float 0.0 & info [ "certify-sample" ] ~docv:"RATE" ~doc)
  in
  let health_out =
    let doc =
      "Write a final ipcp.health/1 snapshot to $(docv) after the drain \
       barrier, when every counter is settled."
    in
    Arg.(
      value & opt (some string) None & info [ "health-out" ] ~docv:"PATH" ~doc)
  in
  let input =
    let doc =
      "Read requests from $(docv) (a FIFO or file) instead of standard \
       input.  Opening a FIFO blocks until a writer connects."
    in
    Arg.(value & opt (some string) None & info [ "input" ] ~docv:"PATH" ~doc)
  in
  let listen =
    let doc =
      "Serve over a listening socket at $(docv) (unix:PATH or \
       tcp:HOST:PORT) instead of stdio: concurrent client connections, \
       one response frame per submitted line on the connection that \
       submitted it, per-connection conservation, slow-loris defenses \
       (--max-line, --read-timeout-ms), and crash isolation from \
       vanishing clients (counted and logged E-LOAD-GONE).  Runs until \
       SIGTERM/SIGINT, then drains gracefully."
    in
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let read_timeout_ms =
    let doc =
      "Socket mode: refuse a connection (E-REQ-TIMEOUT) that keeps a \
       partial request line buffered longer than $(docv) milliseconds.  \
       0 disables the deadline."
    in
    Arg.(value & opt int 10_000 & info [ "read-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let max_line =
    let doc =
      "Refuse request lines longer than $(docv) bytes with an invalid \
       E-REQ-OVERSIZE frame; nothing further is read from that connection \
       (on stdin, that is the end of input).  0 leaves them unchecked."
    in
    Arg.(value & opt int (1 lsl 20) & info [ "max-line" ] ~docv:"BYTES" ~doc)
  in
  let fault_rate =
    let doc =
      "Arm deterministic fault injection at the $(b,serve.worker:<seq>) \
       sites with this raise probability (testing the supervision path)."
    in
    Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~docv:"P" ~doc)
  in
  let fault_seed =
    let doc = "Seed of the fault-injection draws." in
    Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"N" ~doc)
  in
  let run workers queue queue_policy breaker breaker_reset_after
      certify_sample backoff_ms backoff_cap_ms seed input listen
      read_timeout_ms max_line health_out fault_rate fault_seed =
    if fault_rate > 0.0 then
      Ipcp_support.Fault.configure ~raise_rate:fault_rate ~seed:fault_seed ();
    let config =
      {
        Server.workers;
        queue_capacity = queue;
        queue_policy;
        breaker_threshold = breaker;
        breaker_reset_after;
        certify_sample;
        backoff_base_ms = backoff_ms;
        backoff_cap_ms;
        seed;
        health_out;
        read_timeout_ms;
        max_line;
      }
    in
    match listen with
    | Some addr_s -> (
      match Ipcp_serve.Transport.parse_addr addr_s with
      | Error m ->
        Fmt.epr "error: %s@." m;
        exit_input
      | Ok addr -> (
        if input <> None then begin
          Fmt.epr "error: --listen and --input are mutually exclusive@.";
          exit_input
        end
        else
          match Server.run_listen ~config ~addr () with
          | code -> code
          | exception Unix.Unix_error (e, _, _) ->
            Fmt.epr "error: cannot listen on %s: %s@." addr_s
              (Unix.error_message e);
            exit_input))
    | None -> (
      let fd =
        match input with
        | None -> Ok Unix.stdin
        | Some path -> (
          match Unix.openfile path [ Unix.O_RDONLY ] 0 with
          | fd -> Ok fd
          | exception Unix.Unix_error (e, _, _) ->
            Error (Fmt.str "cannot open %s: %s" path (Unix.error_message e)))
      in
      match fd with
      | Error m ->
        Fmt.epr "error: %s@." m;
        exit_input
      | Ok fd ->
        let code = Server.run ~config ~input:fd ~output:stdout () in
        (if input <> None then try Unix.close fd with Unix.Unix_error _ -> ());
        code)
  in
  let doc =
    "Process analysis requests as a long-lived service: newline-delimited \
     JSON requests (analyze, tables, certify, health) in, one JSON \
     response frame per request out.  Every submitted request receives \
     exactly one terminal response; SIGTERM/SIGINT drain gracefully \
     (in-flight work finishes, new work is rejected) and exit 0."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ workers $ queue $ queue_policy $ breaker
      $ breaker_reset_after $ certify_sample $ backoff_ms $ backoff_cap_ms
      $ seed $ input $ listen $ read_timeout_ms $ max_line $ health_out
      $ fault_rate $ fault_seed)

(* ---------------- route ---------------- *)

let route_cmd =
  let shards =
    let doc = "Number of shard worker processes to spawn and supervise." in
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let workers =
    let doc = "Worker domains per shard (passed through to each shard)." in
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue =
    let doc =
      "Admission queue capacity per shard.  Standard input is not read \
       while any live shard holds $(docv) unanswered requests, so a piped \
       batch waits instead of being shed."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let certify_sample =
    let doc =
      "Per-shard online-certification sample rate (passed through).  \
       Sampling keys on each shard's own request sequence, so non-zero \
       rates break byte-identity with a single-process server; \
       certification outcomes are unaffected."
    in
    Arg.(value & opt float 0.0 & info [ "certify-sample" ] ~docv:"RATE" ~doc)
  in
  let breaker =
    let doc =
      "Router-scope circuit breaker: quarantine an input after $(docv) \
       shard-process crashes while serving it (also passed to each shard \
       for its in-process worker breaker); 0 disables."
    in
    Arg.(value & opt int 3 & info [ "breaker" ] ~docv:"N" ~doc)
  in
  let backoff_ms =
    let doc = "First shard-respawn delay after a crash, in milliseconds." in
    Arg.(value & opt int 10 & info [ "backoff-ms" ] ~docv:"MS" ~doc)
  in
  let backoff_cap_ms =
    let doc = "Respawn-backoff ceiling, in milliseconds." in
    Arg.(value & opt int 1000 & info [ "backoff-cap-ms" ] ~docv:"MS" ~doc)
  in
  let seed =
    let doc =
      "Seed of the deterministic respawn-backoff jitter (also passed \
       through to each shard)."
    in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let runtime_dir =
    let doc =
      "Directory for the shard sockets (created if missing).  A private \
       temp directory, removed on exit, when absent."
    in
    Arg.(
      value & opt (some string) None & info [ "runtime-dir" ] ~docv:"DIR" ~doc)
  in
  let health_out =
    let doc =
      "Write a final merged ipcp.health/1 snapshot (all shards summed \
       plus router.* readings) to $(docv) after the drain barrier."
    in
    Arg.(
      value & opt (some string) None & info [ "health-out" ] ~docv:"PATH" ~doc)
  in
  let shard_pids =
    let doc =
      "Rewrite $(docv) with one \"slot pid\" line per live shard on \
       every (re)spawn — how crash harnesses pick a victim to kill."
    in
    Arg.(
      value & opt (some string) None & info [ "shard-pids" ] ~docv:"PATH" ~doc)
  in
  let connect_timeout_ms =
    let doc = "Per-spawn deadline for a shard to accept connections." in
    Arg.(
      value & opt int 5000 & info [ "connect-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let route_deadline_ms =
    let doc =
      "Per-request deadline, in milliseconds: a request its shard has not \
       answered within the window is hedged to the next ring slot exactly \
       once, and the slow shard's late answer is discarded — bounded tail \
       latency under gray failure at the cost of at most one duplicate \
       compute.  0 disables."
    in
    Arg.(value & opt int 0 & info [ "route-deadline-ms" ] ~docv:"MS" ~doc)
  in
  let heartbeat_ms =
    let doc =
      "Heartbeat interval, in milliseconds: the router pings every live \
       shard in-band (shards answer off-queue, even with all workers \
       busy); a shard missing $(b,--heartbeat-misses) consecutive beats \
       is ejected (SIGTERM then SIGKILL) and respawned on the usual \
       seeded backoff.  0 disables."
    in
    Arg.(value & opt int 1000 & info [ "heartbeat-ms" ] ~docv:"MS" ~doc)
  in
  let heartbeat_misses =
    let doc = "Consecutive unanswered heartbeats before ejection." in
    Arg.(value & opt int 3 & info [ "heartbeat-misses" ] ~docv:"N" ~doc)
  in
  let run shards workers queue certify_sample breaker backoff_ms
      backoff_cap_ms seed runtime_dir health_out shard_pids connect_timeout_ms
      route_deadline_ms heartbeat_ms heartbeat_misses =
    let shard_args =
      [ "--workers"; string_of_int workers;
        "--breaker"; string_of_int breaker;
        "--seed"; string_of_int seed ]
      @
      if certify_sample > 0.0 then
        [ "--certify-sample"; string_of_float certify_sample ]
      else []
    in
    let config =
      {
        Ipcp_serve.Router.shards;
        binary = Sys.executable_name;
        shard_args;
        queue;
        runtime_dir;
        breaker_threshold = breaker;
        backoff_base_ms = backoff_ms;
        backoff_cap_ms;
        seed;
        connect_timeout_ms;
        health_out;
        pids_out = shard_pids;
        route_deadline_ms;
        heartbeat_ms;
        heartbeat_misses;
      }
    in
    Ipcp_serve.Router.run config
  in
  let doc =
    "Shard the serve workload over supervised worker processes: the same \
     request stream and response frames as $(b,ipcp serve), but each \
     request is consistent-hashed by its program content (or session \
     name) to one of $(b,--shards) child processes.  A SIGKILLed shard \
     costs only its in-flight requests one re-route; every submitted \
     line still gets exactly one terminal response."
  in
  Cmd.v
    (Cmd.info "route" ~doc)
    Term.(
      const run $ shards $ workers $ queue $ certify_sample $ breaker
      $ backoff_ms $ backoff_cap_ms $ seed $ runtime_dir $ health_out
      $ shard_pids $ connect_timeout_ms $ route_deadline_ms $ heartbeat_ms
      $ heartbeat_misses)

(* ---------------- broken-pipe handling ---------------- *)

let contains ~sub s =
  let n = String.length s and k = String.length sub in
  let rec scan i = i + k <= n && (String.sub s i k = sub || scan (i + 1)) in
  k = 0 || scan 0

(* The runtime renders EPIPE on a channel as Sys_error "Broken pipe". *)
let is_broken_pipe m = contains ~sub:"Broken pipe" m

(* Once the downstream reader is gone, every later flush of stdout —
   including the runtime's at-exit flush of the Format and channel
   buffers — would raise again and turn our clean exit into a fatal
   error.  Pointing fd 1 at /dev/null makes those flushes land
   harmlessly. *)
let neutralize_stdout () =
  try
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 devnull Unix.stdout;
    Unix.close devnull
  with Unix.Unix_error _ | Sys_error _ -> ()

let () =
  (* SIGPIPE must not kill the process: with the signal ignored, a write
     into a closed pipe surfaces as Sys_error (EPIPE) and is reported as
     an ordinary input/output error with exit code 3. *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Test-only hook: IPCP_FAULT_CORRUPT=<seed> arms the fault-injection
     corruption site consulted by the certifier, so CI can prove
     end-to-end that a corrupted solution is rejected with exit 4. *)
  (match Sys.getenv_opt "IPCP_FAULT_CORRUPT" with
  | Some s -> (
    match int_of_string_opt s with
    | Some seed -> Ipcp_support.Fault.configure ~corrupt_rate:1.0 ~seed ()
    | None -> ())
  | None -> ());
  (* Test-only hook: IPCP_TEST_EINTR_MS=<ms> installs a no-op SIGALRM
     handler and a repeating interval timer, so every blocking syscall
     in the process is EINTR-bombed at that period — the harness for
     proving the serve/route select loops restart cleanly. *)
  (match Sys.getenv_opt "IPCP_TEST_EINTR_MS" with
  | Some s when Sys.os_type = "Unix" -> (
    match int_of_string_opt s with
    | Some ms when ms > 0 ->
      Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ()));
      let period = float_of_int ms /. 1000.0 in
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = period; it_value = period })
    | Some _ | None -> ())
  | Some _ | None -> ());
  let doc =
    "interprocedural constant propagation: a study of jump function \
     implementations (Grove & Torczon, PLDI 1993)"
  in
  let info = Cmd.info "ipcp" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        analyze_cmd; certify_cmd; run_cmd; lint_cmd; tables_cmd;
        characteristics_cmd; generate_cmd; serve_cmd; route_cmd;
      ]
  in
  (* ~catch:false so an escaped exception is ours to report: anything the
     subcommands did not turn into an input error is an ipcp bug. *)
  exit
    (try
       let code = Cmd.eval' ~catch:false ~term_err:2 group in
       (* flush here, where a dead pipe is still catchable, rather than
          in at_exit, where it is not *)
       Format.pp_print_flush Format.std_formatter ();
       flush stdout;
       code
     with
    | Sys_error m when is_broken_pipe m ->
      neutralize_stdout ();
      exit_input
    | e ->
      let bt = Printexc.get_backtrace () in
      Fmt.epr "internal error: %s@." (Printexc.to_string e);
      if bt <> "" then Fmt.epr "%s@?" bt;
      exit_internal)
