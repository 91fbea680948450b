(* fuzz — seeded differential fuzzing oracle for the ipcp pipeline.

   Each iteration generates a random closed MiniFort program (the
   workload generator guarantees termination and conformance), then runs
   a battery of oracle checks against it:

   - certification: the independent certifier accepts the solved
     analysis under several configurations, execution witness included
     (so every published constant was compared against the reference
     interpreter's actual values);
   - metamorphic rename: consistently renaming declared variables leaves
     the CONSTANTS sets and substitution totals identical — parameter
     positions and common slots are nominal-free, so the analysis may
     not depend on spelling;
   - metamorphic reorder: shuffling program-unit order leaves the same
     results (compared name-sorted);
   - budget monotonicity: shrinking --max-steps only moves bindings down
     the lattice, never up;
   - jobs determinism: --jobs 1 and --jobs 2 substitute byte-identically.

   On a failing iteration the offending program is minimized by repeated
   single-line removal (keeping it semantically valid and still failing)
   and printed, so the repro lands in the report at its smallest.

   --inject-bad flips the experiment: every iteration deliberately
   corrupts one solution binding through the Fault hook and demands the
   certifier reject it — a self-test that the oracle can actually see
   bugs — and demonstrates minimization on the first such rejection.

   --serve-diff runs the server-vs-direct differential: generated and
   suite programs are submitted to an in-process Ipcp_serve server at
   several worker counts, as analyze and analyze-delta requests, and
   every response frame must carry byte-identical stdout/stderr/exit-code
   to the direct (CLI-equivalent) rendering.

   --serve-cert runs the online-certification differential: with the
   served-solution corruption site armed at rate 1.0, an in-process
   server under --certify-sample 1.0 and 0.5 must never emit a corrupted
   solution as an ok frame, conserve one terminal response per request,
   and produce the exact status set predicted by the pure
   (seed, rate, seq) sampling function at workers 1/2/4.

   --subsume checks that copy propagation subsumes constant propagation
   (Sreekala & Paleri), comparing the solver's two entry seedings: on
   every suite program and every generated workload, under each oracle
   configuration, the const fixpoint holds no copy fact, the copy
   fixpoint projects pointwise onto it, the CONSTANTS sets coincide, and
   the copy substitution total is at least the const one.

   --serve-smoke --ipcp PATH drives a real `ipcp serve` subprocess:
   full-suite responses diffed byte-for-byte against direct CLI runs,
   graceful SIGTERM drain with exit 0, and fault-injected worker
   crashes failing only their own requests with statuses identical
   across worker counts.

   Exit codes: 0 all iterations clean, 1 failures found, 2 usage. *)

module Fault = Ipcp_support.Fault
module Prng = Ipcp_support.Prng
open Ipcp_frontend
open Ipcp_analysis
open Ipcp_core
module Certify = Ipcp_certify.Certify
module Metamorph = Ipcp_certify.Metamorph
module Workload = Ipcp_suite.Workload
module Json = Ipcp_telemetry.Json
module Jobs = Ipcp_serve.Jobs
module SReq = Ipcp_serve.Request
module SErr = Ipcp_serve.Err
module Server = Ipcp_serve.Server
module STransport = Ipcp_serve.Transport
module Incr = Ipcp_incr.Incr

let seed = ref 1
let iterations = ref 25
let certify = ref false
let inject_bad = ref false
let serve_diff = ref false
let serve_smoke = ref false
let serve_shard = ref false
let serve_gray = ref false
let serve_cert = ref false
let delta = ref false
let subsume = ref false
let ipcp_bin = ref ""
let health_out_path = ref ""
let fuel = ref Ipcp_interp.Interp.default_fuel
let verbose = ref false

let speclist =
  [
    ("--seed", Arg.Set_int seed, "N  master seed (default 1)");
    ("--iterations", Arg.Set_int iterations, "N  iterations (default 25)");
    ( "--certify",
      Arg.Set certify,
      "  run the full certifier every iteration (slower, deeper)" );
    ( "--inject-bad",
      Arg.Set inject_bad,
      "  corrupt each solution via the Fault hook; the certifier must \
       reject every one" );
    ( "--serve-diff",
      Arg.Set serve_diff,
      "  server-vs-direct differential (in-process; workers 1 and 4)" );
    ( "--serve-smoke",
      Arg.Set serve_smoke,
      "  drive a real `ipcp serve` subprocess (needs --ipcp)" );
    ( "--serve-shard",
      Arg.Set serve_shard,
      "  drive a real `ipcp route` shard fleet (needs --ipcp): \
       router-vs-single-server byte identity, SIGKILL conservation at \
       shards 1/2/4, poison quarantine, session failover, socket \
       defenses" );
    ( "--serve-gray",
      Arg.Set serve_gray,
      "  gray-failure gates against a real `ipcp route` fleet (needs \
       --ipcp): stalled-shard deadline hedging with ledger dedupe at \
       shards 1/2/4, heartbeat ejection of a SIGSTOPped shard, EINTR \
       storm" );
    ( "--serve-cert",
      Arg.Set serve_cert,
      "  online-certification differential: armed corruption, sampling 1.0 \
       and 0.5, no corrupted solution served as ok (workers 1/2/4)" );
    ( "--health-out",
      Arg.Set_string health_out_path,
      "PATH  (--serve-cert) write the post-drain ipcp.health/1 snapshot here" );
    ( "--delta",
      Arg.Set delta,
      "  incremental re-analysis differential: randomized edit sequences, \
       Incr.update vs from-scratch, byte-identical and certified" );
    ( "--subsume",
      Arg.Set subsume,
      "  copy-vs-const differential: the copy fixpoint must project onto \
       the const fixpoint and substitute at least as much" );
    ( "--ipcp",
      Arg.Set_string ipcp_bin,
      "PATH  ipcp binary for --serve-smoke / --serve-shard" );
    ("--fuel", Arg.Set_int fuel, "N  interpreter fuel per run");
    ("--verbose", Arg.Set verbose, "  print each iteration");
  ]

let usage =
  "fuzz [--seed N] [--iterations N] [--certify] [--inject-bad] \
   [--serve-diff] [--serve-smoke --ipcp PATH] [--serve-shard --ipcp PATH] \
   [--serve-gray --ipcp PATH] [--serve-cert] [--delta] [--subsume]"

(* ------------------------------------------------------------------ *)

(* The per-iteration program: spec shape drawn from the iteration seed. *)
let gen_source iter_seed =
  let prng = Prng.create iter_seed in
  let spec =
    {
      Workload.default_spec with
      seed = iter_seed;
      num_procs = Prng.range prng 3 7;
      num_globals = Prng.range prng 2 4;
      stmts_per_proc = Prng.range prng 5 10;
    }
  in
  Workload.generate spec

let parse ~label source =
  match Sema.check ~file:label source with
  | Ok prog -> Ok prog
  | Error diags ->
    Error (Fmt.str "%a" Ipcp_support.Diagnostics.pp diags)

(* Name-sorted CONSTANTS sets; parameter order inside a procedure is
   already canonical (Param_map), so sorting by name suffices to compare
   across unit reorderings. *)
let constants_profile (t : Driver.t) =
  List.sort compare (Driver.constants t)

let fuzz_configs =
  [
    ("default", Config.default);
    ("polynomial+mod", Config.polynomial_with_mod);
    ("literal", Config.make ~kind:Jump_function.Literal ());
    ("intraprocedural", Config.intraprocedural_only);
  ]

(* All oracle failures for [source], as messages; [] = clean. *)
let failures_of ~iter_seed (source : string) : string list =
  match parse ~label:"fuzz" source with
  | Error d -> [ Fmt.str "generated program does not resolve:@.%s" d ]
  | Ok prog ->
    let errs = ref [] in
    let err fmt = Fmt.kstr (fun m -> errs := m :: !errs) fmt in
    let analyze config = Driver.analyze config prog in
    let reference = analyze Config.default in
    (* (1) certification under several configurations *)
    if !certify then
      List.iter
        (fun (label, config) ->
          let r = Certify.check ~fuel:!fuel (analyze config) in
          if not (Certify.ok r) then
            err "certification failed under %s:@.%a" label Certify.pp_report r
          else if r.Certify.witness <> Certify.Witnessed then
            err
              "interpreter witness did not finish under %s (generated \
               programs must terminate)"
              label)
        fuzz_configs
    else begin
      (* cheap differential core of the oracle: substituted program
         behaves like the original *)
      let open Ipcp_interp in
      let r0 = Interp.run ~fuel:!fuel ~trace_entries:false prog in
      let prog', _ = Substitute.apply reference in
      let r1 = Interp.run ~fuel:!fuel ~trace_entries:false prog' in
      match (r0.Interp.outcome, r1.Interp.outcome) with
      | Interp.Finished, Interp.Finished ->
        if r0.Interp.outputs <> r1.Interp.outputs then
          err "substituted program output diverges from the original"
      | o0, o1 ->
        if o0 <> o1 then
          err "substitution changed the program's outcome"
        else err "generated program did not finish (outcome differs from \
                  Finished)"
    end;
    (* (2) metamorphic: variable renaming preserves the results *)
    (match Metamorph.rename_variables ~seed:iter_seed source with
    | exception Loc.Error (_, m) ->
      err "renamed program does not parse: %s" m
    | renamed -> (
      match parse ~label:"fuzz-renamed" renamed with
      | Error d -> err "renamed program does not resolve:@.%s" d
      | Ok prog_r ->
        let t_r = Driver.analyze Config.default prog_r in
        if constants_profile reference <> constants_profile t_r then
          err "variable renaming changed the CONSTANTS sets";
        let _, s0 = Substitute.apply reference in
        let _, s1 = Substitute.apply t_r in
        if s0.Substitute.total <> s1.Substitute.total then
          err "variable renaming changed the substitution count (%d vs %d)"
            s0.Substitute.total s1.Substitute.total));
    (* (3) metamorphic: unit reordering preserves the results *)
    (match Metamorph.reorder_procs ~seed:iter_seed source with
    | exception Loc.Error (_, m) ->
      err "reordered program does not parse: %s" m
    | reordered -> (
      match parse ~label:"fuzz-reordered" reordered with
      | Error d -> err "reordered program does not resolve:@.%s" d
      | Ok prog_r ->
        let t_r = Driver.analyze Config.default prog_r in
        if constants_profile reference <> constants_profile t_r then
          err "procedure reordering changed the CONSTANTS sets";
        let _, s0 = Substitute.apply reference in
        let _, s1 = Substitute.apply t_r in
        if
          List.sort compare s0.Substitute.by_proc
          <> List.sort compare s1.Substitute.by_proc
        then err "procedure reordering changed the substitution profile"));
    (* (4) budgets only move bindings down the lattice *)
    let generous = analyze Config.default in
    let params_of (p : Prog.proc) =
      List.mapi (fun i _ -> Prog.Pformal i) p.pformals
      @ List.map
          (fun g -> Prog.Pglob (Prog.global_key g))
          (Prog.all_globals prog)
    in
    List.iter
      (fun steps ->
        let budgeted =
          analyze (Config.with_budget ~max_steps:steps Config.default)
        in
        List.iter
          (fun (p : Prog.proc) ->
            List.iter
              (fun param ->
                let lo = Solver.lookup budgeted.Driver.solution p.pname param in
                let hi = Solver.lookup generous.Driver.solution p.pname param in
                if not (Copy_lattice.le lo hi) then
                  err
                    "--max-steps %d moved %s of %s UP the lattice (%a above \
                     %a)"
                    steps
                    (Prog.param_name prog p param)
                    p.pname Copy_lattice.pp lo Copy_lattice.pp hi)
              (params_of p))
          prog.procs)
      [ 0; 1; 63 ];
    (* (5) --jobs determinism *)
    let p1, s1 = Substitute.apply ~jobs:1 reference in
    let p2, s2 = Substitute.apply ~jobs:2 reference in
    if
      Pretty.program_to_string p1 <> Pretty.program_to_string p2
      || s1.Substitute.total <> s2.Substitute.total
    then err "--jobs 1 and --jobs 2 substitute differently";
    List.rev !errs

(* ------------------------------------------------------------------ *)
(* Minimization: greedy single-line removal, repeated to a fixpoint.   *)

let lines_of s = String.split_on_char '\n' s
let unlines = String.concat "\n"

(* [minimize still_failing source] returns the smallest variant reachable
   by deleting one line at a time such that [still_failing] holds. *)
let minimize (still_failing : string -> bool) (source : string) : string =
  let rec pass src =
    let lines = Array.of_list (lines_of src) in
    let n = Array.length lines in
    let rec try_drop i =
      if i >= n then None
      else
        let candidate =
          unlines
            (Array.to_list lines |> List.filteri (fun j _ -> j <> i))
        in
        if still_failing candidate then Some candidate else try_drop (i + 1)
    in
    match try_drop 0 with Some smaller -> pass smaller | None -> src
  in
  pass source

let report_failure iter iter_seed source msgs =
  Fmt.epr "@.=== iteration %d (seed %d) FAILED ===@." iter iter_seed;
  List.iter (fun m -> Fmt.epr "  - %s@." m) msgs;
  let still_failing src =
    match failures_of ~iter_seed src with
    | [] -> false
    | _ -> true
    | exception _ -> false
  in
  let small = minimize still_failing source in
  Fmt.epr "--- minimized repro (%d of %d lines):@.%s@."
    (List.length (lines_of small))
    (List.length (lines_of source))
    small

(* ------------------------------------------------------------------ *)
(* Known-bad self-test: the certifier must reject corrupted solutions. *)

let corrupted_rejected ~iter_seed source =
  match parse ~label:"fuzz-bad" source with
  | Error _ -> false
  | Ok prog ->
    Fault.with_faults ~corrupt_rate:1.0 ~seed:iter_seed (fun () ->
        let r = Certify.check ~fuel:!fuel (Driver.analyze Config.default prog) in
        not (Certify.ok r))

let run_inject_bad () =
  let failures = ref 0 in
  let minimized = ref false in
  for iter = 0 to !iterations - 1 do
    let iter_seed = !seed + (7919 * iter) in
    let source = gen_source iter_seed in
    if corrupted_rejected ~iter_seed source then begin
      if !verbose then
        Fmt.pr "iteration %d: corrupted solution rejected@." iter;
      (* demonstrate minimization end-to-end on the first detection *)
      if not !minimized then begin
        minimized := true;
        let small = minimize (corrupted_rejected ~iter_seed) source in
        Fmt.pr
          "--- corruption detected; minimized witness program: %d of %d \
           lines@."
          (List.length (lines_of small))
          (List.length (lines_of source))
      end
    end
    else begin
      incr failures;
      Fmt.epr
        "iteration %d (seed %d): corrupted solution was NOT rejected@." iter
        iter_seed
    end
  done;
  if !failures = 0 then begin
    Fmt.pr "inject-bad: %d/%d corrupted solutions rejected@." !iterations
      !iterations;
    0
  end
  else 1

let run_oracle () =
  let failures = ref 0 in
  for iter = 0 to !iterations - 1 do
    let iter_seed = !seed + (7919 * iter) in
    let source = gen_source iter_seed in
    match failures_of ~iter_seed source with
    | [] -> if !verbose then Fmt.pr "iteration %d: ok@." iter
    | msgs ->
      incr failures;
      report_failure iter iter_seed source msgs
  done;
  if !failures = 0 then begin
    Fmt.pr "fuzz: %d iterations, no failures (seed %d%s)@." !iterations !seed
      (if !certify then ", certified" else "");
    0
  end
  else begin
    Fmt.epr "fuzz: %d of %d iterations failed@." !failures !iterations;
    1
  end

(* ------------------------------------------------------------------ *)
(* Shared helpers of the serve modes.                                  *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fresh_dir =
  let n = ref 0 in
  fun label ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ipcp-fuzz-%s.%d.%d" label (Unix.getpid ()) !n)
    in
    Unix.mkdir dir 0o700;
    dir

let nonempty_lines s =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)

let parse_responses out =
  List.map
    (fun line ->
      match SReq.response_of_line line with
      | Ok r ->
        (* typed-error frame schema: any error object a server emits must
           be well-formed (coded, classed, prefix-consistent, non-empty
           detail) — enforced across every serve harness *)
        (match r.SReq.rs_error with
        | Some e when not (SErr.well_formed e) ->
          failwith (Printf.sprintf "ill-formed typed error in frame %S" line)
        | _ -> ());
        r
      | Error e -> failwith (Printf.sprintf "unparseable response %S: %s" line e))
    (nonempty_lines out)

let abbrev s = if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

(* ------------------------------------------------------------------ *)
(* --serve-diff: in-process server vs direct rendering.                *)

(* One request with the outcome the direct (CLI-equivalent) path
   renders; the server must answer with exactly these bytes. *)
type diff_case = { dc_id : string; dc_line : string; dc_expect : Jobs.outcome }

let diff_kinds =
  [
    Jump_function.Passthrough; Jump_function.Literal; Jump_function.Intraconst;
    Jump_function.Polynomial;
  ]

(* An analyze request, or with [session] an analyze-delta request in
   that session: either must render what a direct analyze prints. *)
let analyze_case ?session ~id ~path ~kind ~cert () =
  let op, session_field =
    match session with
    | None -> ("analyze", [])
    | Some s -> ("analyze-delta", [ ("session", Json.Str s) ])
  in
  let line =
    Json.to_string
      (Json.Obj
         ([
            ("id", Json.Str id);
            ("op", Json.Str op);
            ("file", Json.Str path);
            ("jf", Json.Str (Jump_function.kind_name kind));
            ("certify", Json.Bool cert);
          ]
         @ session_field))
  in
  let config = Config.make ~kind () in
  let expect =
    match Jobs.load path with
    | Error o -> o
    | Ok (_src, prog) -> Jobs.analyze ~certify:cert ~config ~jobs:1 prog
  in
  { dc_id = id; dc_line = line; dc_expect = expect }

let certify_case ~id ~name ~prog ~kind =
  let line =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Str id);
           ("op", Json.Str "certify");
           ("suite", Json.Str name);
           ("jf", Json.Str (Jump_function.kind_name kind));
         ])
  in
  let config = Config.make ~kind () in
  let expect =
    Jobs.certification
      ~label:(Fmt.str "%s, %s" name (Config.to_string config))
      (Driver.analyze config prog)
  in
  { dc_id = id; dc_line = line; dc_expect = expect }

let tables_case ~id =
  {
    dc_id = id;
    dc_line =
      Json.to_string (Json.Obj [ ("id", Json.Str id); ("op", Json.Str "tables") ]);
    dc_expect = Jobs.tables ~jobs:1 ();
  }

let run_server_inproc ?(certify_sample = 0.0) ?health_out ?sample_seed ~workers
    ~dir ~label lines =
  let in_path = Filename.concat dir (label ^ ".in.jsonl") in
  write_file in_path (String.concat "\n" lines ^ "\n");
  let out_path = Filename.concat dir (label ^ ".out.jsonl") in
  let fd = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let oc = open_out_bin out_path in
  let config =
    { Server.default_config with workers; queue_capacity = 4096;
      certify_sample; health_out;
      seed = Option.value sample_seed ~default:Server.default_config.seed }
  in
  let code = Server.run ~config ~input:fd ~output:oc () in
  Unix.close fd;
  close_out oc;
  (code, parse_responses (read_file out_path))

let run_serve_diff () =
  let dir = fresh_dir "serve-diff" in
  let failures = ref 0 in
  let err fmt = Fmt.kstr (fun m -> incr failures; Fmt.epr "serve-diff: %s@." m) fmt in
  (* generated programs on disk, like real client inputs *)
  let gen_cases =
    List.concat
      (List.init (max 1 !iterations) (fun i ->
           let iter_seed = !seed + (7919 * i) in
           let path = Filename.concat dir (Printf.sprintf "gen%d.mf" i) in
           write_file path (gen_source iter_seed);
           let case =
             analyze_case ~path
               ~kind:(List.nth diff_kinds (i mod List.length diff_kinds))
               ~cert:(i mod 3 = 0)
           in
           [
             case ~id:(Printf.sprintf "gen%d" i) ();
             (* the same program in its own session: the request kind that
                starts an incremental session *)
             case
               ~id:(Printf.sprintf "delta%d" i)
               ~session:(Printf.sprintf "s%d" i) ();
           ]))
  in
  let suite_cases =
    List.concat_map
      (fun (e : Ipcp_suite.Registry.entry) ->
        let prog = Ipcp_suite.Registry.program e in
        [
          certify_case ~id:("cert-" ^ e.name) ~name:e.name ~prog
            ~kind:Jump_function.Passthrough;
        ])
      (match Ipcp_suite.Registry.entries with a :: b :: _ -> [ a; b ] | l -> l)
  in
  let bad_case =
    (* a load failure must round-trip too: same stderr, same exit 3 *)
    analyze_case ~id:"missing"
      ~path:(Filename.concat dir "no-such-file.mf")
      ~kind:Jump_function.Passthrough ~cert:false ()
  in
  let cases = gen_cases @ suite_cases @ [ tables_case ~id:"tables"; bad_case ] in
  let lines = List.map (fun c -> c.dc_line) cases in
  let check_run ~label (code, responses) =
    if code <> 0 then err "%s: server exited %d, expected 0" label code;
    let ids = List.map (fun (r : SReq.response) -> r.rs_id) responses in
    List.iter
      (fun c ->
        match List.filter (fun i -> i = c.dc_id) ids with
        | [ _ ] -> ()
        | l ->
          err "%s: request %s got %d responses, expected exactly 1" label
            c.dc_id (List.length l))
      cases;
    List.iter
      (fun (r : SReq.response) ->
        match List.find_opt (fun c -> c.dc_id = r.rs_id) cases with
        | None -> err "%s: unsolicited response id %S" label r.rs_id
        | Some c ->
          if r.rs_status <> SReq.Ok_done then
            err "%s: %s: status %s, expected ok" label c.dc_id
              (SReq.status_name r.rs_status);
          if r.rs_code <> Some c.dc_expect.code then
            err "%s: %s: code %s, expected %d" label c.dc_id
              (match r.rs_code with Some c -> string_of_int c | None -> "absent")
              c.dc_expect.code;
          if r.rs_stdout <> Some c.dc_expect.out then
            err "%s: %s: stdout diverges from direct rendering@.  server: %S@.  direct: %S"
              label c.dc_id
              (abbrev (Option.value ~default:"<absent>" r.rs_stdout))
              (abbrev c.dc_expect.out);
          if r.rs_stderr <> Some c.dc_expect.err then
            err "%s: %s: stderr diverges from direct rendering@.  server: %S@.  direct: %S"
              label c.dc_id
              (abbrev (Option.value ~default:"<absent>" r.rs_stderr))
              (abbrev c.dc_expect.err))
      responses
  in
  check_run ~label:"workers1"
    (run_server_inproc ~workers:1 ~dir ~label:"w1" lines);
  check_run ~label:"workers4"
    (run_server_inproc ~workers:4 ~dir ~label:"w4" lines);
  if !failures = 0 then begin
    Fmt.pr
      "serve-diff: %d requests byte-identical to direct rendering across \
       workers 1/4 (seed %d)@."
      (List.length cases) !seed;
    0
  end
  else begin
    Fmt.epr "serve-diff: %d divergences@." !failures;
    1
  end

(* ------------------------------------------------------------------ *)
(* --serve-cert: online certification under armed corruption.          *)

(* The adversarial half of the serve contract: with the corruption site
   [serve.solution:<seq>] armed at rate 1.0, served solutions really are
   corrupted before rendering, and the online-certification policy is
   all that stands between them and the client.  The harness proves,
   at workers 1/2/4 and sampling rates 1.0 and 0.5:

   - no corrupted solution is ever emitted as an [ok] frame: every [ok]
     is byte-identical to the direct uncorrupted rendering, every
     corrupted response surfaces as a typed [certification_failed];
   - conservation holds: exactly one terminal response per request;
   - the outcome set is a pure function of (seed, rate, seq) — the same
     statuses at every worker count, and exactly the set predicted by
     [Server.certify_sampled] ∧ corruptibility. *)
let run_serve_cert () =
  let dir = fresh_dir "serve-cert" in
  let failures = ref 0 in
  let err fmt =
    Fmt.kstr (fun m -> incr failures; Fmt.epr "serve-cert: %s@." m) fmt
  in
  (* distinct inputs (one request each, so quarantine never interferes):
     generated programs on disk plus two suite entries *)
  let gen_inputs =
    List.init (max 1 !iterations) (fun i ->
        let iter_seed = !seed + (7919 * i) in
        let path = Filename.concat dir (Printf.sprintf "gen%d.mf" i) in
        write_file path (gen_source iter_seed);
        (Printf.sprintf "gen%d" i, `File path))
  in
  let suite_inputs =
    List.map
      (fun (e : Ipcp_suite.Registry.entry) -> (e.name, `Suite e.name))
      (match Ipcp_suite.Registry.entries with
      | a :: b :: _ -> [ a; b ]
      | l -> l)
  in
  let inputs = gen_inputs @ suite_inputs in
  let line_of (id, target) =
    Json.to_string
      (Json.Obj
         ([ ("id", Json.Str id); ("op", Json.Str "analyze") ]
         @
         match target with
         | `File p -> [ ("file", Json.Str p) ]
         | `Suite n -> [ ("suite", Json.Str n) ]))
  in
  let lines = List.map line_of inputs in
  let progs =
    List.map
      (fun (id, target) ->
        let prog =
          match target with
          | `Suite n -> (
            match Ipcp_suite.Registry.find n with
            | Some e -> Ipcp_suite.Registry.program e
            | None -> failwith ("no suite " ^ n))
          | `File p -> (
            match Jobs.load p with
            | Ok (_, prog) -> prog
            | Error o -> failwith ("generated input does not load: " ^ o.Jobs.err))
        in
        (id, prog))
      inputs
  in
  (* direct renderings, computed before arming the faults *)
  let direct =
    List.map
      (fun (id, prog) ->
        (id, Jobs.analyze ~config:Config.default ~jobs:1 prog))
      progs
  in
  Fault.configure ~corrupt_rate:1.0 ~seed:!seed ();
  Fun.protect ~finally:Fault.clear @@ fun () ->
  (* which sequence numbers can actually be corrupted: the site draw is
     stateless and per-seq, so the server's behavior is predictable here *)
  let corruptible =
    List.mapi
      (fun seq (id, prog) ->
        let c =
          match Fault.corruption (Server.solution_fault_site seq) with
          | None -> false
          | Some cseed ->
            Certify.corrupt ~seed:cseed (Driver.analyze Config.default prog)
            <> None
        in
        (id, c))
      progs
  in
  let expected_statuses ~rate =
    List.mapi
      (fun seq (id, corr) ->
        let sampled = Server.certify_sampled ~seed:!seed ~rate ~seq in
        (id, if sampled && corr then "certification_failed" else "ok"))
      corruptible
    |> List.sort compare
  in
  (* [uncorrupted] are the ids whose ok frames must equal the direct
     rendering at any rate; a corruptible-but-unsampled response is
     allowed to escape below rate 1.0 — that is what sampling means, and
     the status-prediction check still pins exactly which ones do *)
  let check_run ~label ~uncorrupted (code, responses) =
    if code <> 0 then err "%s: server exited %d, expected 0" label code;
    (* conservation: exactly one terminal response per request *)
    List.iter
      (fun (id, _) ->
        match
          List.filter (fun (r : SReq.response) -> r.rs_id = id) responses
        with
        | [ _ ] -> ()
        | l ->
          err "%s: request %s got %d responses, expected exactly 1" label id
            (List.length l))
      inputs;
    List.iter
      (fun (r : SReq.response) ->
        match r.rs_status with
        | SReq.Ok_done -> (
          match List.assoc_opt r.rs_id direct with
          | None -> err "%s: unsolicited response id %S" label r.rs_id
          | Some d ->
            if
              List.mem r.rs_id uncorrupted
              && (r.rs_stdout <> Some d.Jobs.out
                 || r.rs_code <> Some d.Jobs.code)
            then
              err
                "%s: %s: an ok frame diverges from the uncorrupted direct \
                 rendering — a corrupted solution escaped@.  server: %S@.  \
                 direct: %S"
                label r.rs_id
                (abbrev (Option.value ~default:"<absent>" r.rs_stdout))
                (abbrev d.Jobs.out))
        | SReq.Certification_failed -> (
          if r.rs_stdout <> None then
            err "%s: %s: a withheld frame still carries stdout" label r.rs_id;
          match r.rs_error with
          | Some e when e.SErr.e_class = SErr.Certification -> ()
          | Some e ->
            err "%s: %s: withheld frame coded %s, expected E-CERT-*" label
              r.rs_id e.SErr.e_code
          | None -> err "%s: %s: withheld frame has no typed error" label r.rs_id)
        | s ->
          err "%s: %s: status %s outside {ok, certification_failed}" label
            r.rs_id (SReq.status_name s))
      responses;
    List.sort compare
      (List.map
         (fun (r : SReq.response) -> (r.rs_id, SReq.status_name r.rs_status))
         responses)
  in
  List.iter
    (fun rate ->
      let expect = expected_statuses ~rate in
      let caught =
        List.length (List.filter (fun (_, s) -> s = "certification_failed") expect)
      in
      if caught = 0 then
        err "rate %.1f: no corruption lands in the sample (seed %d)" rate !seed;
      let uncorrupted =
        List.filteri
          (fun seq (_, corr) ->
            (not corr) || Server.certify_sampled ~seed:!seed ~rate ~seq)
          corruptible
        |> List.map fst
      in
      List.iter
        (fun workers ->
          let label = Printf.sprintf "rate%.1f-w%d" rate workers in
          let health_out =
            if !health_out_path <> "" && rate >= 1.0 && workers = 1 then
              Some !health_out_path
            else None
          in
          let got =
            check_run ~label ~uncorrupted
              (run_server_inproc ~certify_sample:rate ?health_out
                 ~sample_seed:!seed ~workers ~dir ~label lines)
          in
          if got <> expect then
            err
              "%s: statuses diverge from the (seed, rate, seq) prediction — \
               the sampled set is not deterministic"
              label)
        [ 1; 2; 4 ])
    [ 1.0; 0.5 ];
  if !failures = 0 then begin
    Fmt.pr
      "serve-cert: %d corrupted-at-source requests, workers 1/2/4, rates \
       1.0/0.5 — no corrupted solution served as ok, conservation and \
       status determinism hold (seed %d)@."
      (List.length inputs) !seed;
    0
  end
  else begin
    Fmt.epr "serve-cert: %d failures@." !failures;
    1
  end

(* ------------------------------------------------------------------ *)
(* --serve-smoke: a real `ipcp serve` subprocess.                      *)

let devnull_in () = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0

(* Run [argv] to completion, capturing stdout/stderr. *)
let run_capture argv =
  let out_f = Filename.temp_file "ipcp-fuzz-out" "" in
  let err_f = Filename.temp_file "ipcp-fuzz-err" "" in
  let out_fd = Unix.openfile out_f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let err_fd = Unix.openfile err_f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let in_fd = devnull_in () in
  let pid = Unix.create_process argv.(0) argv in_fd out_fd err_fd in
  Unix.close in_fd;
  Unix.close out_fd;
  Unix.close err_fd;
  let _, status = Unix.waitpid [] pid in
  let code = match status with Unix.WEXITED c -> c | _ -> -1 in
  let out = read_file out_f and err = read_file err_f in
  Sys.remove out_f;
  Sys.remove err_f;
  (code, out, err)

type server_proc = { sp_pid : int; sp_send : out_channel; sp_recv : in_channel }

let start_proc ?env argv =
  (* cloexec, or the child would inherit the write end of its own stdin
     pipe and closing ours would never deliver EOF (create_process
     dup2s onto fds 0/1, which clears the flag on the copies) *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let pid =
    match env with
    | None -> Unix.create_process argv.(0) argv stdin_r stdout_w Unix.stderr
    | Some env ->
      Unix.create_process_env argv.(0) argv env stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  {
    sp_pid = pid;
    sp_send = Unix.out_channel_of_descr stdin_w;
    sp_recv = Unix.in_channel_of_descr stdout_r;
  }

let start_server args = start_proc (Array.append [| !ipcp_bin; "serve" |] args)

let read_to_eof ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  Buffer.contents buf

(* Close the request stream and collect everything until the server
   drains; returns (exit code, responses). *)
let finish_server sp =
  close_out sp.sp_send;
  let rest = read_to_eof sp.sp_recv in
  close_in sp.sp_recv;
  let _, status = Unix.waitpid [] sp.sp_pid in
  let code = match status with Unix.WEXITED c -> c | _ -> -1 in
  (code, rest)

let submit sp line =
  output_string sp.sp_send line;
  output_char sp.sp_send '\n';
  flush sp.sp_send

let analyze_req ~id ~path =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Str id); ("op", Json.Str "analyze"); ("file", Json.Str path) ])

let run_serve_smoke () =
  if !ipcp_bin = "" then begin
    Fmt.epr "--serve-smoke needs --ipcp PATH@.";
    exit 2
  end;
  let dir = fresh_dir "serve-smoke" in
  let failures = ref 0 in
  let err fmt =
    Fmt.kstr (fun m -> incr failures; Fmt.epr "serve-smoke: %s@." m) fmt
  in
  let suite_files =
    List.map
      (fun (e : Ipcp_suite.Registry.entry) ->
        let path = Filename.concat dir (e.name ^ ".mf") in
        write_file path e.source;
        (e.name, path))
      Ipcp_suite.Registry.entries
  in
  (* ---- gate 1: full suite, byte-for-byte against the direct CLI ---- *)
  let sp = start_server [| "--workers"; "2"; "--queue"; "256" |] in
  List.iter (fun (name, path) -> submit sp (analyze_req ~id:name ~path)) suite_files;
  submit sp (Json.to_string (Json.Obj [ ("id", Json.Str "tables"); ("op", Json.Str "tables") ]));
  let code, out = finish_server sp in
  if code <> 0 then err "suite run: server exited %d, expected 0" code;
  let responses = parse_responses out in
  let expected = suite_files @ [ ("tables", "") ] in
  if List.length responses <> List.length expected then
    err "suite run: %d responses for %d requests" (List.length responses)
      (List.length expected);
  List.iter
    (fun (name, path) ->
      match List.find_opt (fun (r : SReq.response) -> r.rs_id = name) responses with
      | None -> err "suite run: no response for %s" name
      | Some r ->
        let direct_code, direct_out, direct_err =
          if name = "tables" then run_capture [| !ipcp_bin; "tables" |]
          else run_capture [| !ipcp_bin; "analyze"; path |]
        in
        if r.rs_status <> SReq.Ok_done then
          err "suite run: %s: status %s" name (SReq.status_name r.rs_status);
        if r.rs_code <> Some direct_code then
          err "suite run: %s: exit code differs from direct CLI" name;
        if r.rs_stdout <> Some direct_out then
          err "suite run: %s: stdout differs from direct CLI@.  server: %S@.  cli: %S"
            name
            (abbrev (Option.value ~default:"<absent>" r.rs_stdout))
            (abbrev direct_out);
        if r.rs_stderr <> Some direct_err then
          err "suite run: %s: stderr differs from direct CLI" name)
    expected;
  (* ---- gate 2: SIGTERM drains gracefully with exit 0 ---- *)
  let sp = start_server [| "--workers"; "1" |] in
  let first3 = List.filteri (fun i _ -> i < 3) suite_files in
  List.iter (fun (name, path) -> submit sp (analyze_req ~id:("t-" ^ name) ~path)) first3;
  (* all three answered -> in-flight work is done; now signal *)
  let answered = List.map (fun _ -> input_line sp.sp_recv) first3 in
  Unix.kill sp.sp_pid Sys.sigterm;
  let code, rest = finish_server sp in
  if code <> 0 then err "SIGTERM drain: server exited %d, expected 0" code;
  let all = List.length (parse_responses (String.concat "\n" answered ^ "\n" ^ rest)) in
  if all <> 3 then err "SIGTERM drain: %d responses for 3 requests" all;
  (* ---- gate 3: fault-injected crashes fail only their own request ---- *)
  (* --fault-rate arms only the per-request serve.worker:<seq>:<k> draws,
     and stdio numbers requests in submission order, so the crashed set
     is exactly the requests whose own draws fire — predicted here by
     making the same draws in process *)
  let fault_rate = 0.03 and fault_seed = 42 in
  let predicted_crashes =
    Fault.with_faults ~raise_rate:fault_rate ~seed:fault_seed (fun () ->
        List.filteri
          (fun seq _ ->
            try
              for k = 0 to 7 do
                Fault.inject (Printf.sprintf "serve.worker:%d:%d" seq k)
              done;
              false
            with Fault.Injected _ -> true)
          suite_files
        |> List.map fst |> List.sort compare)
  in
  let fault_args extra =
    Array.append
      [| "--fault-rate"; string_of_float fault_rate;
         "--fault-seed"; string_of_int fault_seed; "--queue"; "64" |]
      extra
  in
  let fault_run workers =
    let sp = start_server (fault_args [| "--workers"; workers |]) in
    List.iter
      (fun (name, path) -> submit sp (analyze_req ~id:name ~path))
      suite_files;
    let code, out = finish_server sp in
    if code <> 0 then err "fault run (workers %s): server exited %d" workers code;
    parse_responses out
  in
  let statuses rs =
    List.sort compare
      (List.map (fun (r : SReq.response) -> (r.rs_id, SReq.status_name r.rs_status)) rs)
  in
  let r1 = fault_run "1" and r2 = fault_run "2" in
  if List.length r1 <> List.length suite_files then
    err "fault run: %d responses for %d requests" (List.length r1)
      (List.length suite_files);
  let completed = List.filter (fun (r : SReq.response) -> r.rs_status = SReq.Ok_done) r1 in
  List.iter
    (fun (workers, rs) ->
      let crashed =
        List.sort compare
          (List.filter_map
             (fun (r : SReq.response) ->
               if r.rs_status = SReq.Error_crash then Some r.rs_id else None)
             rs)
      in
      if crashed <> predicted_crashes then
        err "fault run (workers %s): crashed [%s], predicted [%s]" workers
          (String.concat " " crashed)
          (String.concat " " predicted_crashes))
    [ ("1", r1); ("2", r2) ];
  if predicted_crashes = [] then err "fault run: no injected crash predicted";
  if completed = [] then err "fault run: no request survived (crash not contained)";
  if statuses r1 <> statuses r2 then
    err "fault run: statuses differ between --workers 1 and --workers 2";
  (* the survivors still carry byte-identical direct output *)
  List.iter
    (fun (r : SReq.response) ->
      match List.assoc_opt r.rs_id suite_files with
      | None -> ()
      | Some path ->
        let _, direct_out, _ = run_capture [| !ipcp_bin; "analyze"; path |] in
        if r.rs_stdout <> Some direct_out then
          err "fault run: survivor %s diverges from direct CLI" r.rs_id)
    completed;
  (* ---- gate 4: certified serving under armed corruption ----
     IPCP_FAULT_CORRUPT arms the served-solution corruption site in the
     subprocess; with --certify-sample 1.0 no corrupted solution may
     leave it as ok, and statuses stay identical at workers 1/2/4. *)
  let direct_out =
    List.map
      (fun (name, path) ->
        let _, out, _ = run_capture [| !ipcp_bin; "analyze"; path |] in
        (name, out))
      suite_files
  in
  Unix.putenv "IPCP_FAULT_CORRUPT" "7";
  let cert_run workers =
    let sp =
      start_server [| "--workers"; workers; "--certify-sample"; "1.0" |]
    in
    List.iter
      (fun (name, path) -> submit sp (analyze_req ~id:name ~path))
      suite_files;
    let code, out = finish_server sp in
    if code <> 0 then
      err "certified run (workers %s): server exited %d" workers code;
    parse_responses out
  in
  let c1 = cert_run "1" and c2 = cert_run "2" and c4 = cert_run "4" in
  (* int_of_string_opt fails on "" -> the hook stays unarmed downstream *)
  Unix.putenv "IPCP_FAULT_CORRUPT" "";
  List.iter
    (fun (label, rs) ->
      if List.length rs <> List.length suite_files then
        err "certified run %s: %d responses for %d requests" label
          (List.length rs) (List.length suite_files);
      List.iter
        (fun (r : SReq.response) ->
          match r.rs_status with
          | SReq.Ok_done ->
            if r.rs_stdout <> List.assoc_opt r.rs_id direct_out then
              err
                "certified run %s: %s served as ok but diverges from the \
                 direct CLI — a corrupted solution escaped"
                label r.rs_id
          | SReq.Certification_failed -> (
            match r.rs_error with
            | Some e when e.SErr.e_class = SErr.Certification -> ()
            | _ ->
              err "certified run %s: %s withheld without an E-CERT error"
                label r.rs_id)
          | s ->
            err "certified run %s: %s: unexpected status %s" label r.rs_id
              (SReq.status_name s))
        rs)
    [ ("w1", c1); ("w2", c2); ("w4", c4) ];
  if
    not
      (List.exists
         (fun (r : SReq.response) -> r.rs_status = SReq.Certification_failed)
         c1)
  then err "certified run: armed corruption produced no certification_failed";
  if statuses c1 <> statuses c2 || statuses c1 <> statuses c4 then
    err "certified run: statuses differ across workers 1/2/4";
  if !failures = 0 then begin
    Fmt.pr
      "serve-smoke: suite diff, SIGTERM drain, fault containment and \
       certified-serving gates all passed@.";
    0
  end
  else begin
    Fmt.epr "serve-smoke: %d failures@." !failures;
    1
  end

(* ------------------------------------------------------------------ *)
(* --serve-shard: a real `ipcp route` multi-process shard fleet.       *)

let start_router ?env args =
  start_proc ?env (Array.append [| !ipcp_bin; "route" |] args)

(* One synchronous request/response exchange (the poison and failover
   gates pin an exact status sequence, so they go one at a time). *)
let rpc sp line =
  submit sp line;
  input_line sp.sp_recv

let shard_pids path =
  nonempty_lines (read_file path)
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ _slot; pid ] -> int_of_string_opt pid
         | _ -> None)

(* A process has exited once it is gone or a zombie: an orphan is reaped
   by whoever adopted it, perhaps never.  The state is read from
   /proc/PID/stat where there is one (it follows the parenthesised
   command name); elsewhere only a vanished pid counts. *)
let pid_exited pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | ic -> (
    let stat =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> try input_line ic with End_of_file | Sys_error _ -> "")
    in
    match String.rindex_opt stat ')' with
    | Some i when i + 2 < String.length stat -> stat.[i + 2] = 'Z'
    | _ -> false)
  | exception Sys_error _ -> (
    match Unix.kill pid 0 with
    | () -> false
    | exception Unix.Unix_error _ -> true)

(* Read [fd] until one full '\n'-terminated frame (returned without the
   newline) or EOF; [None] when the peer closed without answering. *)
let read_frame_fd fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | n -> (
      Buffer.add_subbytes buf chunk 0 n;
      match String.index_opt (Buffer.contents buf) '\n' with
      | Some nl -> Some (String.sub (Buffer.contents buf) 0 nl)
      | None -> go ())
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
  in
  go ()

let gauge_of doc name =
  match Json.path [ "gauges"; name ] doc with
  | Some j -> Json.to_int_opt j
  | None -> None

let counter_of doc name =
  match Json.path [ "counters"; name ] doc with
  | Some j -> Json.to_int_opt j
  | None -> None

let run_serve_shard () =
  if !ipcp_bin = "" then begin
    Fmt.epr "--serve-shard needs --ipcp PATH@.";
    exit 2
  end;
  let dir = fresh_dir "serve-shard" in
  let failures = ref 0 in
  let err fmt =
    Fmt.kstr (fun m -> incr failures; Fmt.epr "serve-shard: %s@." m) fmt
  in
  let suite_files =
    List.map
      (fun (e : Ipcp_suite.Registry.entry) ->
        let path = Filename.concat dir (e.name ^ ".mf") in
        write_file path e.source;
        (e.name, path))
      Ipcp_suite.Registry.entries
  in
  let names = List.map fst suite_files in
  let kind_of i = List.nth diff_kinds (i mod List.length diff_kinds) in
  let suite_line ~id name =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Str id); ("op", Json.Str "analyze");
           ("suite", Json.Str name) ])
  in
  (* ---- gate 1: routed stream byte-identical to a single server ----
     The same mixed request file (analyze under rotating jump functions,
     some certified, tables, one garbage line) through `ipcp serve` and
     through `ipcp route --shards N`: the sorted response streams must
     be equal byte-for-byte — the router relays shard frames verbatim
     with only the id spliced back.  A health probe rides along on the
     router runs; it is router-merged (router.* readings exist only
     there), so it is excluded from the identity comparison. *)
  let id_cases =
    List.mapi
      (fun i (name, path) ->
        analyze_case ~id:("a-" ^ name) ~path ~kind:(kind_of i)
          ~cert:(i mod 3 = 0) ())
      suite_files
    @ [ tables_case ~id:"tables" ]
  in
  let id_lines =
    List.map (fun c -> c.dc_line) id_cases @ [ "this is not a request" ]
  in
  let sp = start_server [| "--workers"; "2"; "--queue"; "256" |] in
  List.iter (submit sp) id_lines;
  let single_code, single_out = finish_server sp in
  if single_code <> 0 then err "identity: single server exited %d" single_code;
  ignore (parse_responses single_out);
  let single_sorted = List.sort compare (nonempty_lines single_out) in
  List.iter
    (fun shards ->
      let sp =
        start_router
          [| "--shards"; string_of_int shards; "--workers"; "2";
             "--queue"; "256" |]
      in
      List.iter (submit sp) id_lines;
      submit sp
        (Json.to_string
           (Json.Obj [ ("id", Json.Str "hprobe"); ("op", Json.Str "health") ]));
      let code, out = finish_server sp in
      if code <> 0 then err "identity (%d shards): router exited %d" shards code;
      let responses = parse_responses out in
      (match
         List.find_opt (fun (r : SReq.response) -> r.rs_id = "hprobe") responses
       with
      | None -> err "identity (%d shards): no merged health answer" shards
      | Some r -> (
        match r.rs_health with
        | None ->
          err "identity (%d shards): health frame has no document" shards
        | Some doc ->
          if gauge_of doc "router.shards" <> Some shards then
            err "identity (%d shards): merged health lacks router.shards"
              shards;
          (* shard readings are summed in: each shard reports workers=2 *)
          if gauge_of doc "serve.workers" <> Some (2 * shards) then
            err "identity (%d shards): summed serve.workers gauge is wrong"
              shards));
      let routed_sorted =
        nonempty_lines out
        |> List.filter (fun l ->
               match SReq.response_of_line l with
               | Ok r -> r.SReq.rs_id <> "hprobe"
               | Error _ -> true)
        |> List.sort compare
      in
      if routed_sorted <> single_sorted then begin
        let s = Filename.concat dir "identity-single.sorted" in
        let r = Filename.concat dir (Printf.sprintf "identity-%d.sorted" shards) in
        write_file s (String.concat "\n" single_sorted ^ "\n");
        write_file r (String.concat "\n" routed_sorted ^ "\n");
        err
          "identity (%d shards): routed stream is not byte-identical to the \
           single-process server (dumped %s vs %s)" shards s r
      end)
    [ 1; 2; 4 ];
  (* ---- gate 2: SIGKILLed shard, every request still answered ----
     Conservation across a crash: a few requests answered first (so the
     pids file is known-written), the rest submitted and the victim
     SIGKILLed while they are in flight.  Every request must still get
     exactly one terminal frame, all ok, byte-identical to the direct
     rendering — the dead shard's in-flight work re-routes to the next
     live shard (or waits for the respawn when it was the only one). *)
  let kill_cases =
    List.mapi
      (fun i (name, path) ->
        analyze_case ~id:("k-" ^ name) ~path ~kind:(kind_of (i + 1))
          ~cert:false ())
      suite_files
  in
  List.iter
    (fun shards ->
      let pids_path = Filename.concat dir (Printf.sprintf "pids.%d" shards) in
      let sp =
        start_router
          [| "--shards"; string_of_int shards; "--workers"; "1";
             "--shard-pids"; pids_path; "--backoff-ms"; "5";
             "--backoff-cap-ms"; "40" |]
      in
      let warmup = List.filteri (fun i _ -> i < 3) kill_cases in
      let rest = List.filteri (fun i _ -> i >= 3) kill_cases in
      List.iter (fun (c : diff_case) -> submit sp c.dc_line) warmup;
      let answered = List.map (fun _ -> input_line sp.sp_recv) warmup in
      let victim =
        match shard_pids pids_path with
        | pid :: _ -> pid
        | [] ->
          err "kill (%d shards): no shard pids written" shards;
          -1
      in
      List.iter (fun (c : diff_case) -> submit sp c.dc_line) rest;
      if victim > 0 then Unix.kill victim Sys.sigkill;
      let code, out = finish_server sp in
      if code <> 0 then err "kill (%d shards): router exited %d" shards code;
      let responses =
        parse_responses (String.concat "\n" answered ^ "\n" ^ out)
      in
      if List.length responses <> List.length kill_cases then
        err "kill (%d shards): conservation broken: %d responses for %d \
             requests" shards (List.length responses)
          (List.length kill_cases);
      List.iter
        (fun (c : diff_case) ->
          match
            List.find_opt
              (fun (r : SReq.response) -> r.rs_id = c.dc_id)
              responses
          with
          | None -> err "kill (%d shards): no response for %s" shards c.dc_id
          | Some r ->
            if r.rs_status <> SReq.Ok_done then
              err "kill (%d shards): %s: status %s, expected ok" shards
                c.dc_id (SReq.status_name r.rs_status)
            else if r.rs_stdout <> Some c.dc_expect.Jobs.out then
              err "kill (%d shards): %s diverges from the direct rendering"
                shards c.dc_id)
        kill_cases)
    [ 1; 2; 4 ];
  (* ---- gate 3: poison input quarantined at router scope ----
     IPCP_SERVE_KILL_INPUT makes any shard SIGKILL itself the moment it
     executes the poison input.  The first submission kills its shard,
     re-routes exactly once, kills the second — and terminates with
     E-WORKER-LOST instead of crash-looping.  Two shard deaths on one
     input open the router-scope breaker, so the next submission is
     quarantined at admission without touching any shard; healthy
     traffic keeps flowing around the whole episode. *)
  let poison = List.hd names in
  let healthy =
    List.find
      (fun n -> n <> poison && not (String.starts_with ~prefix:poison n))
      names
  in
  let env =
    Array.append (Unix.environment ())
      [| "IPCP_SERVE_KILL_INPUT=suite:" ^ poison |]
  in
  List.iter
    (fun shards ->
      let sp =
        start_router ~env
          [| "--shards"; string_of_int shards; "--breaker"; "2";
             "--backoff-ms"; "5"; "--backoff-cap-ms"; "40" |]
      in
      let check ~label ~status ~ecode line =
        match SReq.response_of_line (rpc sp line) with
        | Error e ->
          err "poison (%d shards): %s: unparseable frame: %s" shards label e
        | Ok r ->
          if SReq.status_name r.rs_status <> status then
            err "poison (%d shards): %s: status %s, expected %s" shards label
              (SReq.status_name r.rs_status) status;
          (match ecode with
          | None -> ()
          | Some c -> (
            match r.rs_error with
            | Some e when e.SErr.e_code = c -> ()
            | _ ->
              err "poison (%d shards): %s: expected error code %s" shards
                label c))
      in
      check ~label:"healthy before" ~status:"ok" ~ecode:None
        (suite_line ~id:"ok1" healthy);
      check ~label:"poison #1" ~status:"error" ~ecode:(Some "E-WORKER-LOST")
        (suite_line ~id:"p1" poison);
      check ~label:"poison #2" ~status:"quarantined"
        ~ecode:(Some "E-LOAD-QUARANTINE")
        (suite_line ~id:"p2" poison);
      check ~label:"healthy after" ~status:"ok" ~ecode:None
        (suite_line ~id:"ok2" healthy);
      let code, _ = finish_server sp in
      if code <> 0 then err "poison (%d shards): router exited %d" shards code)
    [ 1; 2 ];
  (* ---- gate 4: failover starts a lost session again ----
     An analyze-delta session is started, its shard SIGKILLed, and the
     next delta served by the respawned process.  Sessions live only in
     shard memory, so the respawn starts the session again — proven by
     the serve.delta_fresh counter (a fresh start, not an incremental
     update) — and the delta output must stay byte-identical to a
     from-scratch CLI analyze of the edited source. *)
  let pids_path = Filename.concat dir "pids.failover" in
  let prog_path = Filename.concat dir "failover.mf" in
  write_file prog_path (gen_source ((!seed * 131) + 1));
  let delta_line id =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Str id); ("op", Json.Str "analyze-delta");
           ("file", Json.Str prog_path); ("session", Json.Str "failover") ])
  in
  let sp =
    start_router
      [| "--shards"; "1"; "--shard-pids"; pids_path;
         "--backoff-ms"; "5"; "--backoff-cap-ms"; "40" |]
  in
  (match SReq.response_of_line (rpc sp (delta_line "d1")) with
  | Ok r when r.rs_status = SReq.Ok_done -> ()
  | Ok r -> err "failover: d1: status %s" (SReq.status_name r.rs_status)
  | Error e -> err "failover: d1: unparseable frame: %s" e);
  (match shard_pids pids_path with
  | pid :: _ -> Unix.kill pid Sys.sigkill
  | [] -> err "failover: no shard pid written");
  write_file prog_path (gen_source ((!seed * 131) + 2));
  (match SReq.response_of_line (rpc sp (delta_line "d2")) with
  | Ok r when r.rs_status = SReq.Ok_done ->
    let _, direct_out, _ = run_capture [| !ipcp_bin; "analyze"; prog_path |] in
    if r.rs_stdout <> Some direct_out then
      err "failover: d2 diverges from a from-scratch analyze"
  | Ok r -> err "failover: d2: status %s" (SReq.status_name r.rs_status)
  | Error e -> err "failover: d2: unparseable frame: %s" e);
  (match
     SReq.response_of_line
       (rpc sp
          (Json.to_string
             (Json.Obj [ ("id", Json.Str "h"); ("op", Json.Str "health") ])))
   with
  | Ok { rs_health = Some doc; _ } -> (
    match
      (counter_of doc "serve.delta_fresh", counter_of doc "serve.delta_updates")
    with
    | Some fresh, Some 0 when fresh >= 1 -> ()
    | _ ->
      err
        "failover: the respawned shard did not start the session again (no \
         delta_fresh recorded, or an update against a session it cannot \
         hold)")
  | Ok _ -> err "failover: health frame has no document"
  | Error e -> err "failover: health: unparseable frame: %s" e);
  let code, _ = finish_server sp in
  if code <> 0 then err "failover: router exited %d" code;
  (* ---- gate 5: the socket listener's own defenses ----
     A real `ipcp serve --listen` process, attacked directly over its
     unix socket: an oversized line is refused with E-REQ-OVERSIZE, a
     stalled partial line is timed out with E-REQ-TIMEOUT, a client that
     hangs up before its answer costs nothing but an E-LOAD-GONE
     stderr-accounting entry — and a healthy connection still
     round-trips after all three.  The post-drain snapshot pins each
     defense's counter. *)
  let sock = Filename.concat dir "defense.sock" in
  let health_path = Filename.concat dir "defense-health.json" in
  let errlog = Filename.concat dir "defense-stderr.log" in
  let err_fd =
    Unix.openfile errlog [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let in_fd = devnull_in () in
  let listener_pid =
    Unix.create_process !ipcp_bin
      [| !ipcp_bin; "serve"; "--listen"; "unix:" ^ sock; "--workers"; "1";
         "--read-timeout-ms"; "400"; "--max-line"; "2048";
         "--health-out"; health_path |]
      in_fd err_fd err_fd
  in
  Unix.close in_fd;
  Unix.close err_fd;
  let addr = STransport.Unix_sock sock in
  let rec connect_retry tries =
    match STransport.connect addr with
    | fd -> fd
    | exception (Unix.Unix_error _ | Sys_error _) when tries > 0 ->
      Unix.sleepf 0.02;
      connect_retry (tries - 1)
  in
  let send_all fd s =
    let n = String.length s in
    let rec go off =
      if off < n then go (off + Unix.write_substring fd s off (n - off))
    in
    go 0
  in
  let expect_refusal ~label ~code fd =
    match read_frame_fd fd with
    | None -> err "defense: %s got no response frame" label
    | Some line -> (
      match SReq.response_of_line line with
      | Ok { rs_status = SReq.Invalid; rs_error = Some e; _ }
        when e.SErr.e_code = code -> ()
      | Ok r ->
        err "defense: %s: status %s, expected invalid/%s" label
          (SReq.status_name r.rs_status) code
      | Error e -> err "defense: %s: unparseable frame: %s" label e)
  in
  let fd = connect_retry 150 in
  send_all fd (String.make 4096 'x' ^ "\n");
  expect_refusal ~label:"oversize line" ~code:"E-REQ-OVERSIZE" fd;
  Unix.close fd;
  let fd = connect_retry 150 in
  send_all fd "{\"id\":\"loris\"";
  (* no newline ever comes; the read deadline must answer for us *)
  expect_refusal ~label:"slow-loris partial" ~code:"E-REQ-TIMEOUT" fd;
  Unix.close fd;
  let fd = connect_retry 150 in
  send_all fd
    (Json.to_string
       (Json.Obj [ ("id", Json.Str "gone"); ("op", Json.Str "tables") ])
    ^ "\n");
  (* hang up while tables is still computing: the write must fail
     EPIPE-quietly inside the server, never kill it *)
  Unix.close fd;
  let fd = connect_retry 150 in
  send_all fd (suite_line ~id:"alive" healthy ^ "\n");
  (match read_frame_fd fd with
  | None -> err "defense: healthy request after the attacks got no response"
  | Some line -> (
    match SReq.response_of_line line with
    | Ok { rs_status = SReq.Ok_done; _ } -> ()
    | Ok r ->
      err "defense: healthy request: status %s" (SReq.status_name r.rs_status)
    | Error e -> err "defense: healthy request: unparseable frame: %s" e));
  Unix.close fd;
  Unix.kill listener_pid Sys.sigterm;
  let _, status = Unix.waitpid [] listener_pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> err "defense: listener exited %d after SIGTERM" c
  | _ -> err "defense: listener did not exit on SIGTERM");
  (match Json.of_string (read_file health_path) with
  | exception Sys_error _ -> err "defense: no post-drain health snapshot"
  | Error e -> err "defense: unreadable health snapshot: %s" e
  | Ok doc ->
    List.iter
      (fun c ->
        match counter_of doc c with
        | Some n when n >= 1 -> ()
        | _ -> err "defense: counter %s did not record the attack" c)
      [ "serve.req_oversize"; "serve.req_timeout"; "serve.client_gone" ];
    if counter_of doc "serve.conns_accepted" <> Some 4 then
      err "defense: conns_accepted is not 4");
  (* the E-LOAD-GONE accounting entry is a full, lintable response
     frame on stderr — the request's outcome is recorded even though
     no client was left to receive it *)
  let gone_entries =
    nonempty_lines (read_file errlog)
    |> List.filter (fun l ->
           match SReq.response_of_line l with
           | Ok { rs_error = Some e; _ } -> e.SErr.e_code = "E-LOAD-GONE"
           | _ -> false)
  in
  if gone_entries = [] then
    err "defense: no E-LOAD-GONE accounting entry on the listener's stderr";
  (* ---- gate 6: a SIGKILLed router takes its shards with it ----
     Each shard's stdin and stdout are its end of a socketpair whose
     other end only the router holds, so the router's death, however it
     dies, is every shard's end of input: after one answered request
     and a SIGKILL of the router, every shard pid must exit within 5 s.
     One still running is killed here, after the failure is counted. *)
  let pids_path = Filename.concat dir "pids.orphans" in
  let sp = start_router [| "--shards"; "2"; "--shard-pids"; pids_path |] in
  (match SReq.response_of_line (rpc sp (suite_line ~id:"r1" healthy)) with
  | Ok { rs_status = SReq.Ok_done; _ } -> ()
  | Ok r -> err "router kill: r1: status %s" (SReq.status_name r.rs_status)
  | Error e -> err "router kill: r1: unparseable frame: %s" e);
  let orphans = shard_pids pids_path in
  if List.length orphans <> 2 then
    err "router kill: %d shard pids written, expected 2" (List.length orphans);
  Unix.kill sp.sp_pid Sys.sigkill;
  ignore (Unix.waitpid [] sp.sp_pid);
  close_out_noerr sp.sp_send;
  close_in_noerr sp.sp_recv;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec running () =
    match List.filter (fun pid -> not (pid_exited pid)) orphans with
    | _ :: _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      running ()
    | alive -> alive
  in
  (match running () with
  | [] -> ()
  | alive ->
    err "router kill: shard pid(s) %s still running 5 s after the router's \
         SIGKILL"
      (String.concat " " (List.map string_of_int alive));
    List.iter
      (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      alive);
  (* ---- gate 7: a stopped router answers its parked requests ----
     A request whose shard died waits, parked, for a respawn.  Here none
     can come: the router runs from a copy of the binary, deleted once
     its one shard is up, so every respawn fails (ENOENT).  The parked
     request is the poison input, so its shard dies serving it, and the
     router parks it in the same step that reaps the shard: once the
     shard's pid is gone, the request is parked.  SIGTERM must then end
     the router with exit 0 within 5 s, and the parked id get exactly
     one rejected/E-LOAD-DRAIN frame. *)
  let copy = Filename.concat dir "ipcp-deleted" in
  write_file copy (read_file !ipcp_bin);
  Unix.chmod copy 0o755;
  let pids_path = Filename.concat dir "pids.parked" in
  let sp =
    start_proc ~env
      [| copy; "route"; "--shards"; "1"; "--shard-pids"; pids_path;
         "--backoff-ms"; "5"; "--backoff-cap-ms"; "40" |]
  in
  (match SReq.response_of_line (rpc sp (suite_line ~id:"u1" healthy)) with
  | Ok { rs_status = SReq.Ok_done; _ } -> ()
  | Ok r -> err "parked stop: u1: status %s" (SReq.status_name r.rs_status)
  | Error e -> err "parked stop: u1: unparseable frame: %s" e);
  Sys.remove copy;
  submit sp (suite_line ~id:"parked" poison);
  let gone pid =
    match Unix.kill pid 0 with
    | () -> false
    | exception Unix.Unix_error _ -> true
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let shard = shard_pids pids_path in
  if List.length shard <> 1 then
    err "parked stop: %d shard pids written, expected 1" (List.length shard);
  while
    (not (List.for_all gone shard)) && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.02
  done;
  if not (List.for_all gone shard) then
    err "parked stop: the shard serving the poison input did not die";
  Unix.kill sp.sp_pid Sys.sigterm;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] sp.sp_pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ ->
      err "parked stop: the router is still running 5 s after SIGTERM";
      Unix.kill sp.sp_pid Sys.sigkill;
      ignore (Unix.waitpid [] sp.sp_pid)
    | _, Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED c -> err "parked stop: the router exited %d" c
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
      err "parked stop: the router died by a signal"
  in
  wait ();
  close_out_noerr sp.sp_send;
  let out = read_to_eof sp.sp_recv in
  close_in_noerr sp.sp_recv;
  (match
     List.filter
       (fun (r : SReq.response) -> r.rs_id = "parked")
       (parse_responses out)
   with
  | [ { rs_status = SReq.Rejected; rs_error = Some e; _ } ]
    when e.SErr.e_code = "E-LOAD-DRAIN" ->
    ()
  | frames ->
    err "parked stop: %d frame(s) for the parked request, expected one \
         rejected/E-LOAD-DRAIN" (List.length frames));
  if !failures = 0 then begin
    Fmt.pr
      "serve-shard: identity, SIGKILL conservation, poison quarantine, \
       session failover, socket-defense, router-SIGKILL and parked-stop \
       gates all passed (shards 1/2/4)@.";
    0
  end
  else begin
    Fmt.epr "serve-shard: %d failures@." !failures;
    1
  end

(* ------------------------------------------------------------------ *)
(* --serve-gray: gray-failure tolerance of the shard router.           *)

let contains_sub ~sub s =
  let n = String.length s and k = String.length sub in
  let rec scan i = i + k <= n && (String.sub s i k = sub || scan (i + 1)) in
  k = 0 || scan 0

(* Read exactly [n] frames from the router without closing stdin — the
   conservation probe for runs where late duplicates are still in
   flight behind the terminal answers. *)
let read_n_frames sp n = List.init n (fun _ -> input_line sp.sp_recv)

let run_serve_gray () =
  if !ipcp_bin = "" then begin
    Fmt.epr "--serve-gray needs --ipcp PATH@.";
    exit 2
  end;
  let dir = fresh_dir "serve-gray" in
  let failures = ref 0 in
  let err fmt =
    Fmt.kstr (fun m -> incr failures; Fmt.epr "serve-gray: %s@." m) fmt
  in
  let health_base =
    if !health_out_path <> "" then !health_out_path
    else Filename.concat dir "gray-health"
  in
  let suite_line ~id name =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Str id); ("op", Json.Str "analyze");
           ("suite", Json.Str name) ])
  in
  let health_line ~id =
    Json.to_string (Json.Obj [ ("id", Json.Str id); ("op", Json.Str "health") ])
  in
  let names =
    List.filteri
      (fun i _ -> i < 6)
      (List.map
         (fun (e : Ipcp_suite.Registry.entry) -> e.name)
         Ipcp_suite.Registry.entries)
  in
  (* the stall hook matches by substring of the input key, so the victim
     must not occur inside any other suite name *)
  let victim =
    List.find
      (fun n -> List.for_all (fun m -> m = n || not (contains_sub ~sub:n m)) names)
      names
  in
  let lines = List.map (fun n -> suite_line ~id:("g-" ^ n) n) names in
  let n_lines = List.length lines in
  (* healthy baseline: the same lines through a single, unstalled
     server — the bytes every gray run must still produce *)
  let sp = start_server [| "--workers"; "2" |] in
  List.iter (submit sp) lines;
  let base_code, base_out = finish_server sp in
  if base_code <> 0 then err "baseline server exited %d" base_code;
  ignore (parse_responses base_out);
  let base_sorted = List.sort compare (nonempty_lines base_out) in
  let check_identity ~label frames =
    let responses = parse_responses (String.concat "\n" frames ^ "\n") in
    let ids = List.map (fun (r : SReq.response) -> r.rs_id) responses in
    let uniq = List.sort_uniq compare ids in
    if List.length uniq <> List.length ids then
      err "%s: duplicate response ids — the ledger double-delivered" label;
    if List.sort compare frames <> base_sorted then begin
      let p = Filename.concat dir (label ^ ".sorted") in
      write_file p (String.concat "\n" (List.sort compare frames) ^ "\n");
      err "%s: gray-run stream diverges from the healthy baseline (dumped %s)"
        label p
    end
  in
  (* ---- gate 1: stalled shard, deadline hedge, ledger dedupe ----
     Every shard stalls the victim input for 800ms while the router's
     deadline is 200ms: the victim expires and is hedged; whichever
     copy answers second is discarded by the ledger.  The client-visible
     stream must stay byte-identical to the healthy baseline, with no
     id answered twice, at shards 1, 2 and 4 — and the router must
     admit what happened (deadline_expired / hedged / late_dropped). *)
  let stall_env =
    Array.append (Unix.environment ())
      [|
        "IPCP_SERVE_STALL_INPUT=suite:" ^ victim; "IPCP_SERVE_STALL_MS=800";
      |]
  in
  List.iter
    (fun shards ->
      let sp =
        start_router ~env:stall_env
          [| "--shards"; string_of_int shards; "--workers"; "1";
             "--route-deadline-ms"; "200"; "--backoff-ms"; "5";
             "--backoff-cap-ms"; "40" |]
      in
      List.iter (submit sp) lines;
      let frames = read_n_frames sp n_lines in
      check_identity ~label:(Printf.sprintf "stall-%d" shards) frames;
      (* give the slow copies time to answer and be dropped *)
      Unix.sleepf 2.5;
      (match SReq.response_of_line (rpc sp (health_line ~id:"hg")) with
      | Ok { rs_health = Some doc; _ } ->
        List.iter
          (fun c ->
            match counter_of doc c with
            | Some n when n >= 1 -> ()
            | _ ->
              err "stall (%d shards): counter %s did not record the hedge"
                shards c)
          [ "router.deadline_expired"; "router.hedged"; "router.late_dropped" ]
      | Ok _ -> err "stall (%d shards): health frame has no document" shards
      | Error e -> err "stall (%d shards): health unparseable: %s" shards e);
      let code, rest = finish_server sp in
      if code <> 0 then err "stall (%d shards): router exited %d" shards code;
      if nonempty_lines rest <> [] then
        err "stall (%d shards): %d frames after the drain — conservation \
             broken" shards
          (List.length (nonempty_lines rest)))
    [ 1; 2; 4 ];
  (* ---- gate 2: heartbeat ejection of a stopped shard ----
     SIGSTOP leaves the process alive but silent — the gray failure a
     crash detector cannot see.  The router must count missed beats,
     eject (SIGTERM escalating to SIGKILL, since a stopped process
     never handles SIGTERM), re-route the stopped shard's inflight, and
     respawn the slot; traffic never loses a frame. *)
  let pids_path = Filename.concat dir "gray-pids" in
  let eject_health = health_base ^ ".eject" in
  let sp =
    start_router
      [| "--shards"; "2"; "--workers"; "1"; "--heartbeat-ms"; "100";
         "--heartbeat-misses"; "3"; "--backoff-ms"; "5";
         "--backoff-cap-ms"; "40"; "--shard-pids"; pids_path;
         "--health-out"; eject_health |]
  in
  (match SReq.response_of_line (rpc sp (List.hd lines)) with
  | Ok { rs_status = SReq.Ok_done; _ } -> ()
  | Ok r -> err "eject: warm-up status %s" (SReq.status_name r.rs_status)
  | Error e -> err "eject: warm-up unparseable: %s" e);
  (match shard_pids pids_path with
  | pid :: _ -> Unix.kill pid Sys.sigstop
  | [] -> err "eject: no shard pids written");
  List.iter (submit sp) lines;
  let frames = read_n_frames sp n_lines in
  List.iter
    (fun f ->
      match SReq.response_of_line f with
      | Ok { rs_status = SReq.Ok_done; _ } -> ()
      | Ok r ->
        err "eject: %s answered %s, expected ok (re-route after ejection)"
          r.rs_id (SReq.status_name r.rs_status)
      | Error e -> err "eject: unparseable frame: %s" e)
    frames;
  Unix.sleepf 0.3;
  (match SReq.response_of_line (rpc sp (health_line ~id:"he")) with
  | Ok { rs_health = Some doc; _ } ->
    (match counter_of doc "router.ejections" with
    | Some n when n >= 1 -> ()
    | _ -> err "eject: router.ejections did not record the ejection");
    (match counter_of doc "router.shard_restarts" with
    | Some n when n >= 1 -> ()
    | _ -> err "eject: the ejected shard was not respawned");
    if gauge_of doc "router.shards_up" <> Some 2 then
      err "eject: fleet not back to full strength after the respawn"
  | Ok _ -> err "eject: health frame has no document"
  | Error e -> err "eject: health unparseable: %s" e);
  (match SReq.response_of_line (rpc sp (suite_line ~id:"post-eject" victim)) with
  | Ok { rs_status = SReq.Ok_done; _ } -> ()
  | Ok r -> err "eject: post-respawn status %s" (SReq.status_name r.rs_status)
  | Error e -> err "eject: post-respawn unparseable: %s" e);
  let code, _ = finish_server sp in
  if code <> 0 then err "eject: router exited %d" code;
  (* ---- gate 3: EINTR storm across the fleet ----
     A 2ms no-op SIGALRM timer in the router and every shard: every
     blocking syscall gets interrupted constantly, and the stream must
     not change by a byte. *)
  let eintr_env =
    Array.append (Unix.environment ()) [| "IPCP_TEST_EINTR_MS=2" |]
  in
  let sp =
    start_router ~env:eintr_env
      [| "--shards"; "2"; "--workers"; "2" |]
  in
  List.iter (submit sp) lines;
  let code, out = finish_server sp in
  if code <> 0 then err "eintr: router exited %d" code;
  check_identity ~label:"eintr" (nonempty_lines out);
  if !failures = 0 then begin
    Fmt.pr
      "serve-gray: stall/hedge identity (shards 1/2/4), heartbeat \
       ejection and EINTR-storm gates all passed@.";
    0
  end
  else begin
    Fmt.epr "serve-gray: %d failures@." !failures;
    1
  end

(* ------------------------------------------------------------------ *)
(* --subsume: copy propagation subsumes constant propagation.          *)

(* Constant propagation is the solver seeded ⊥ where copy propagation
   seeds a global with a copy of itself, and [Copy_lattice.project] is a
   meet and transfer-function homomorphism onto [Const_lattice], so the
   const fixpoint is copy-free and the projected copy fixpoint is
   exactly it.  Per program and oracle configuration: (a) no copy fact
   in the const VAL maps and pointwise projection equality, (b)
   identical CONSTANTS sets, (c) a copy substitution total at least the
   const one.  [] = clean. *)
let subsume_failures ~label prog : string list =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun m -> errs := m :: !errs) fmt in
  let params_of (p : Prog.proc) =
    List.mapi (fun i _ -> Prog.Pformal i) p.pformals
    @ List.map
        (fun g -> Prog.Pglob (Prog.global_key g))
        (Prog.all_globals prog)
  in
  List.iter
    (fun (clabel, config) ->
      let const_t = Driver.analyze config prog in
      let copy_t = Driver.analyze (Config.with_analysis `Copy config) prog in
      List.iter
        (fun (p : Prog.proc) ->
          List.iter
            (fun param ->
              let c = Solver.lookup const_t.Driver.solution p.pname param in
              let k = Solver.lookup copy_t.Driver.solution p.pname param in
              if
                Copy_lattice.is_copy c
                || not
                     (Const_lattice.equal (Copy_lattice.project k)
                        (Copy_lattice.project c))
              then
                err
                  "%s [%s]: %s of %s: copy fixpoint %a projects to %a, but \
                   the const fixpoint is %a"
                  label clabel
                  (Prog.param_name prog p param)
                  p.pname Copy_lattice.pp k Const_lattice.pp
                  (Copy_lattice.project k) Copy_lattice.pp c)
            (params_of p))
        prog.Prog.procs;
      if
        List.sort compare (Driver.constants const_t)
        <> List.sort compare (Driver.constants copy_t)
      then
        err "%s [%s]: CONSTANTS sets differ between const and copy" label
          clabel;
      let _, sc = Substitute.apply ~jobs:1 const_t in
      let _, sk = Substitute.apply ~jobs:1 copy_t in
      if sk.Substitute.total < sc.Substitute.total then
        err "%s [%s]: copy substituted %d sites, const %d — copy must be ≥"
          label clabel sk.Substitute.total sc.Substitute.total)
    fuzz_configs;
  List.rev !errs

let run_subsume () =
  let failures = ref 0 in
  let checked = ref 0 in
  let check ~label source =
    match parse ~label source with
    | Error d ->
      incr failures;
      Fmt.epr "subsume: %s does not resolve:@.%s@." label d
    | Ok prog -> (
      incr checked;
      match subsume_failures ~label prog with
      | [] -> if !verbose then Fmt.pr "subsume: %s ok@." label
      | msgs ->
        incr failures;
        List.iter (fun m -> Fmt.epr "subsume: %s@." m) msgs)
  in
  List.iter
    (fun (e : Ipcp_suite.Registry.entry) -> check ~label:e.name e.source)
    Ipcp_suite.Registry.entries;
  for iter = 0 to !iterations - 1 do
    let iter_seed = !seed + (7919 * iter) in
    check ~label:(Printf.sprintf "gen%d" iter) (gen_source iter_seed)
  done;
  if !failures = 0 then begin
    Fmt.pr
      "subsume: %d programs under %d configurations — the copy fixpoint \
       projects onto const and substitutes at least as much (seed %d)@."
      !checked
      (List.length fuzz_configs)
      !seed;
    0
  end
  else begin
    Fmt.epr "subsume: %d failures@." !failures;
    1
  end

(* ------------------------------------------------------------------ *)
(* --delta: incremental re-analysis vs from-scratch.                   *)

(* The unit of each line of a generated program: a unit header is an
   unindented line other than [end]; the first unit (0) is main. *)
let numbered_units src : (int * string) list =
  let lines = String.split_on_char '\n' src in
  let units =
    List.fold_left
      (fun (u, acc) l ->
        let u = if l <> "" && l.[0] <> ' ' && l <> "end" then u + 1 else u in
        (u, u :: acc))
      (-1, []) lines
    |> snd |> List.rev
  in
  List.combine units lines

let join numbered = String.concat "\n" (List.map snd numbered)

(* [common /gc/ a, b] -> Some [a; b] *)
let common_members l =
  match String.split_on_char '/' (String.trim l) with
  | [ "common "; _; items ] ->
    Some (List.map String.trim (String.split_on_char ',' items))
  | _ -> None

(* The lines of unit [u], and the units other than main. *)
let lines_of numbered u =
  List.filter_map (fun (v, l) -> if v = u then Some l else None) numbered

let subunits numbered =
  List.sort_uniq compare (List.filter (fun u -> u > 0) (List.map fst numbered))

let is_call l = String.starts_with ~prefix:"call " (String.trim l)

(* [numbered] with [extra] inserted just before unit [u]'s closing
   [end]. *)
let before_end numbered u extra =
  let closed = ref false in
  List.concat_map
    (fun (v, l) ->
      if v = u && l = "end" && not !closed then begin
        closed := true;
        List.map (fun x -> (v, x)) extra @ [ (v, l) ]
      end
      else [ (v, l) ])
    numbered

(* [Workload.edits] writes [data] only in main.  This appends two
   versions to an edit sequence: one of main's [data] statements for a
   common global moves to another unit that declares the global (with a
   fresh value), then that value changes.  The second step leaves main's
   body unchanged while its entry values change.  Returns [] when the
   program has no such statement or unit. *)
let data_edits prng src : string list =
  let numbered = numbered_units src in
  let data_name l =
    match String.split_on_char ' ' (String.trim l) with
    | [ "data"; name; _ ] -> Some name
    | _ -> None
  in
  let main_data =
    List.filter_map
      (fun (u, l) -> if u = 0 then data_name l else None)
      numbered
  in
  let declares name l =
    match common_members l with Some ms -> List.mem name ms | None -> false
  in
  let hosts name =
    List.filter_map
      (fun (u, l) -> if u > 0 && declares name l then Some u else None)
      numbered
  in
  match List.filter (fun name -> hosts name <> []) main_data with
  | [] -> []
  | movable ->
    let name = Prng.choose prng movable in
    let host = Prng.choose prng (hosts name) in
    let v1 = Prng.range prng 0 20 in
    let v2 = v1 + Prng.range prng 1 5 in
    let with_value v =
      List.concat_map
        (fun (u, l) ->
          if u = 0 && data_name l = Some name then []
          else if u = host && declares name l then
            [ l; Printf.sprintf "  data %s /%d/" name v ]
          else [ l ])
        numbered
      |> String.concat "\n"
    in
    [ with_value v1; with_value v2 ]

(* [Workload.edits] changes MOD/REF only by adding or deleting calls.
   This writes a common global in a leaf (a unit with no call) that
   declares the block, then takes the write out again: the leaf's
   summary and its callers' grow, then shrink.  Returns [] when no unit
   declares the block. *)
let global_write_edits prng src : string list =
  let numbered = numbered_units src in
  let declaring =
    List.filter_map
      (fun u ->
        Option.map (fun ms -> (u, ms))
          (List.find_map common_members (lines_of numbered u)))
      (subunits numbered)
  in
  let leaves =
    List.filter
      (fun (u, _) -> not (List.exists is_call (lines_of numbered u)))
      declaring
  in
  match if leaves <> [] then leaves else declaring with
  | [] -> []
  | candidates ->
    let u, members = Prng.choose prng candidates in
    let write =
      Printf.sprintf "  %s = %d" (Prng.choose prng members)
        (Prng.range prng 0 20)
    in
    [ join (before_end numbered u [ write ]); src ]

(* Generated call graphs are acyclic: a procedure calls only
   higher-numbered ones.  This adds a call from a callee back to a caller
   that calls it directly, under a guard no generated value reaches (the
   interpreter witness must not recurse forever; the call graph does not
   look at guards), then removes it: an SCC forms, then splits.  Returns
   [] when no unit calls another. *)
let cycle_edits prng src : string list =
  let numbered = numbered_units src in
  (* "subroutine p(a, b)" -> ("p", 2); "call p(x)" -> "p" *)
  let header u = List.assoc u numbered in
  let name_and_arity h =
    let rest = String.sub h 11 (String.length h - 11) in
    match String.index_opt rest '(' with
    | None -> (String.trim rest, 0)
    | Some i ->
      let args = String.sub rest (i + 1) (String.length rest - i - 2) in
      ( String.trim (String.sub rest 0 i),
        List.length (String.split_on_char ',' args) )
  in
  let callee_of l =
    let t = String.trim l in
    let rest = String.sub t 5 (String.length t - 5) in
    match String.index_opt rest '(' with
    | Some i -> String.trim (String.sub rest 0 i)
    | None -> String.trim rest
  in
  let units =
    List.filter_map
      (fun u ->
        if String.starts_with ~prefix:"subroutine " (header u) then
          Some (fst (name_and_arity (header u)), u)
        else None)
      (subunits numbered)
  in
  let pairs =
    List.filter_map
      (fun (u, l) ->
        if u > 0 && is_call l then
          match List.assoc_opt (callee_of l) units with
          | Some v when v <> u -> Some (u, v)
          | Some _ | None -> None
        else None)
      numbered
  in
  match pairs with
  | [] -> []
  | _ ->
    let caller, callee = Prng.choose prng pairs in
    let name, arity = name_and_arity (header caller) in
    let guard =
      if snd (name_and_arity (header callee)) = 0 then "lv1" else "ka1"
    in
    let args = List.init arity (fun i -> string_of_int (i + 1)) in
    let call =
      if arity = 0 then "call " ^ name
      else Printf.sprintf "call %s(%s)" name (String.concat ", " args)
    in
    let back =
      [ Printf.sprintf "  if (%s .gt. 100000) then" guard; "    " ^ call;
        "  end if" ]
    in
    [ join (before_end numbered callee back); src ]

(* [Sema] takes a common block's member names from the first unit that
   declares it.  This calls a new unit that declares no common from main
   (before main's first call, so the globals still hold their initial
   values: its CONSTANTS name them), inserts ahead of main an uncalled
   unit declaring the block under other member names, edits main, and
   removes that unit again.  The last step leaves main's text unchanged
   while the display names of every global change back.  Returns [] when
   main declares no common. *)
let first_declarer_edits prng src : string list =
  let numbered = numbered_units src in
  match List.find_map common_members (lines_of numbered 0) with
  | None | Some [] -> []
  | Some members ->
    let call = Printf.sprintf "  call zzshow(%d)" (Prng.range prng 0 9) in
    let first_call = ref true in
    (* the call goes before main's first call, or else before its end *)
    let with_show =
      List.concat_map
        (fun (u, l) ->
          if u = 0 && !first_call && (is_call l || l = "end") then begin
            first_call := false;
            [ call; l ]
          end
          else [ l ])
        numbered
      @ [ ""; "subroutine zzshow(ka1)"; "  integer ka1"; "  print *, ka1";
          "end" ]
    in
    let edit_main lines =
      let main_end = ref false in
      List.concat_map
        (fun l ->
          if l = "end" && not !main_end then begin
            main_end := true;
            [ "  lv1 = lv1 + 1"; l ]
          end
          else [ l ])
        lines
    in
    let aliases =
      List.mapi (fun i _ -> Printf.sprintf "zq%d" (i + 1)) members
      |> String.concat ", "
    in
    let decl =
      [ "subroutine zzdecl(ka1)"; "  integer ka1"; "  integer " ^ aliases;
        "  common /gc/ " ^ aliases; "  print *, ka1"; "end"; "" ]
    in
    let text = String.concat "\n" in
    [
      text with_show;
      text (decl @ with_show);
      text (decl @ edit_main with_show);
      text (edit_main with_show);
    ]

(* Each iteration draws a workload spec, derives a randomized edit
   sequence from it (constant tweaks, call duplication/deletion,
   procedure addition/removal, then {!data_edits}, {!global_write_edits},
   {!cycle_edits} and {!first_declarer_edits}, then the last program
   α-renamed and reordered by {!Metamorph}), and replays the sequence
   through an {!Incr} session under all four jump-function kinds.  After
   every update the incremental rendering must be byte-identical to a
   from-scratch analyze of the same source, the result must pass the
   independent certifier (whose SCCP check vets every SCCP result the
   update copied), and complete propagation continued from the session
   must render what a from-scratch [analyze --complete] does.  The
   renamed and reordered versions, and an identical version, must keep
   the previous fixpoint (an empty cone). *)
let run_delta () =
  let failures = ref 0 in
  let checks = ref 0 in
  for iter = 0 to !iterations - 1 do
    let iter_seed = !seed + (7919 * iter) in
    let err fmt =
      Fmt.kstr
        (fun m ->
          incr failures;
          Fmt.epr "delta: iteration %d (seed %d): %s@." iter iter_seed m)
        fmt
    in
    let prng = Prng.create iter_seed in
    let spec =
      {
        Workload.default_spec with
        seed = iter_seed;
        num_procs = Prng.range prng 3 7;
        num_globals = Prng.range prng 2 4;
        stmts_per_proc = Prng.range prng 5 10;
      }
    in
    let versions =
      List.fold_left
        (fun versions extend ->
          versions @ extend prng (List.nth versions (List.length versions - 1)))
        (Workload.edits spec ~seed:iter_seed ~n:4)
        [ data_edits; global_write_edits; cycle_edits; first_declarer_edits ]
    in
    (* the last program α-renamed, then reordered under its own names:
       both updates change procedures but no jump function *)
    let versions =
      let last = List.nth versions (List.length versions - 1) in
      versions
      @ [
          Metamorph.rename_variables ~seed:iter_seed last;
          Metamorph.reorder_procs ~seed:iter_seed last;
        ]
    in
    let metamorphic vi = vi >= List.length versions - 2 in
    let progs =
      List.mapi
        (fun i src ->
          match parse ~label:(Printf.sprintf "delta-v%d" i) src with
          | Ok p -> Some p
          | Error d ->
            err "edited version %d does not resolve:@.%s" i d;
            None)
        versions
    in
    if List.for_all Option.is_some progs then begin
      let progs = List.filter_map Fun.id progs in
      List.iter
        (fun kind ->
          let config = Config.make ~kind () in
          let kname = Jump_function.kind_name kind in
          let scratch prog = Jobs.analyze ~config ~jobs:1 prog in
          let check_version ~vi sess prog =
            incr checks;
            let inc = Jobs.analyze ~solved:(Incr.result sess) ~config ~jobs:1 prog in
            let ref_ = scratch prog in
            if inc <> ref_ then
              err
                "%s: version %d diverges from from-scratch analyze@.  incr: \
                 %S@.  scratch: %S"
                kname vi (abbrev inc.Jobs.out) (abbrev ref_.Jobs.out);
            let r = Certify.check ~fuel:!fuel (Incr.result sess) in
            if not (Certify.ok r) then
              err "%s: version %d failed certification:@.%a" kname vi
                Certify.pp_report r;
            (* complete propagation's rounds, continued from the session *)
            let inc =
              Jobs.analyze ~complete:true ~session:sess ~config ~jobs:1 prog
            and ref_ = Jobs.analyze ~complete:true ~config ~jobs:1 prog in
            if inc <> ref_ then
              err
                "%s: version %d's complete propagation diverges from \
                 from-scratch@.  incr: %S@.  scratch: %S"
                kname vi (abbrev inc.Jobs.out) (abbrev ref_.Jobs.out)
          in
          match progs with
          | [] -> ()
          | first :: rest ->
            let sess = ref (Incr.start config first) in
            check_version ~vi:0 !sess first;
            List.iteri
              (fun i prog ->
                let s', stats = Incr.update ~prev:!sess prog in
                sess := s';
                if !verbose then
                  Fmt.pr "iteration %d %s v%d: %a@." iter kname (i + 1)
                    Incr.pp_stats stats;
                if metamorphic (i + 1) && stats.Incr.cone_size <> 0 then
                  err "%s: renamed or reordered version %d was re-solved (%a)"
                    kname (i + 1) Incr.pp_stats stats;
                check_version ~vi:(i + 1) !sess prog)
              rest;
            (* an identical version must keep the previous fixpoint *)
            (match
               parse ~label:"delta-same"
                 (List.nth versions (List.length versions - 1))
             with
            | Error d -> err "%s: reparse of final version failed:@.%s" kname d
            | Ok same ->
              let s', stats = Incr.update ~prev:!sess same in
              if stats.Incr.cone_size <> 0 || stats.Incr.procs_resolved <> 0
              then
                err "%s: identical version was re-solved (%a)"
                  kname Incr.pp_stats stats;
              if stats.Incr.changed_procs <> 0 then
                err "%s: identical version reported %d changed procs" kname
                  stats.Incr.changed_procs;
              check_version ~vi:(List.length versions) s' same))
        diff_kinds
    end
  done;
  if !failures = 0 then begin
    Fmt.pr
      "delta: %d iterations, %d incremental results byte-identical to \
       from-scratch and certified (seed %d)@."
      !iterations !checks !seed;
    0
  end
  else begin
    Fmt.epr "delta: %d failures@." !failures;
    1
  end

let () =
  Arg.parse speclist
    (fun a ->
      Fmt.epr "unexpected argument %S@." a;
      exit 2)
    usage;
  exit
    (if !serve_diff then run_serve_diff ()
     else if !serve_cert then run_serve_cert ()
     else if !serve_smoke then run_serve_smoke ()
     else if !serve_shard then run_serve_shard ()
     else if !serve_gray then run_serve_gray ()
     else if !inject_bad then run_inject_bad ()
     else if !delta then run_delta ()
     else if !subsume then run_subsume ()
     else run_oracle ())
