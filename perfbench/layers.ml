(* The in-process half of the benchmark (see perfbench/README.md).

   It makes the seeded inputs, renders the reference outputs that replayed
   serve/route frames are checked against, and runs the traced per-layer
   pass of each workload.  The pass calls each layer's public functions in
   the order the CLI does and times every call with spans kept here; the
   counters and spans the analyzer already reports through Ipcp_telemetry
   are harvested from a collector installed around the pipeline.  Nothing
   inside the analyzer is instrumented for the benchmark.

   Usage (paths are relative to the repository root):
     layers.exe suite
     layers.exe gen PROCS SEED OUT
     layers.exe edits PROCS SEED N DIR
     layers.exe refs PLAN OUTDIR
     layers.exe trace-tables GOLDEN
     layers.exe trace-analyze SMALL LARGE
     layers.exe trace-serve PLAN DIR N
     layers.exe sweep-point FILE

   Metrics are printed as "name<TAB>value" lines. *)

open Ipcp_frontend
open Ipcp_core
module T = Ipcp_telemetry.Telemetry
module Jobs = Ipcp_serve.Jobs
module Registry = Ipcp_suite.Registry
module Workload = Ipcp_suite.Workload
module Incr = Ipcp_incr.Incr

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6

(* ---------------- metrics ---------------- *)

let metrics : (string * float) list ref = ref []
let set name v = metrics := (name, v) :: List.remove_assoc name !metrics

let print_metrics () =
  List.iter
    (fun (k, v) -> Printf.printf "%s\t%.17g\n" k v)
    (List.sort compare !metrics)

(* Nearest-rank percentile of a non-empty list; 0 for an empty one. *)
let percentile xs p =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* ---------------- benchmark-side spans ---------------- *)

(* Total time per span name, and the time covered by outermost spans —
   the numerator of trace.coverage. *)
let span_ns : (string, int) Hashtbl.t = Hashtbl.create 64
let depth = ref 0
let covered_ns = ref 0

let span name f =
  let t0 = now_ns () in
  incr depth;
  let finish () =
    decr depth;
    let d = now_ns () - t0 in
    Hashtbl.replace span_ns name
      (d + Option.value ~default:0 (Hashtbl.find_opt span_ns name));
    if !depth = 0 then covered_ns := !covered_ns + d
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let span_ms name =
  ms_of_ns (Option.value ~default:0 (Hashtbl.find_opt span_ns name))

(* Allocation and major collections per layer. *)
let gc_acc : (string, float * int) Hashtbl.t = Hashtbl.create 8

let with_gc layer f =
  let w0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).Gc.major_collections in
  let v = f () in
  let w1 = Gc.minor_words () and c1 = (Gc.quick_stat ()).Gc.major_collections in
  let w, c = Option.value ~default:(0.0, 0) (Hashtbl.find_opt gc_acc layer) in
  Hashtbl.replace gc_acc layer (w +. (w1 -. w0), c + (c1 - c0));
  v

let set_gc () =
  List.iter
    (fun layer ->
      let w, c = Option.value ~default:(0.0, 0) (Hashtbl.find_opt gc_acc layer) in
      set (Printf.sprintf "gc.%s.minor_mwords" layer) (w /. 1e6);
      set (Printf.sprintf "gc.%s.major_collections" layer) (float_of_int c))
    [ "frontend"; "jump_function"; "solver"; "substitute" ]

(* ---------------- harvesting the analyzer's own telemetry ---------------- *)

let counter coll name = Option.value ~default:0 (T.counter coll name)

(* Total time of every span called [name], wherever it sits in the tree
   (worker-domain subtrees included). *)
let program_span_ms coll name =
  let rec walk acc (s : T.span_snapshot) =
    let acc = if s.sp_name = name then acc + s.sp_ns else acc in
    List.fold_left walk acc s.sp_children
  in
  ms_of_ns (List.fold_left walk 0 (T.spans coll))

(* Microseconds per Jump_function.build_ir call, one sample per call, from
   the analyzer's own "build_ir:<proc>" spans. *)
let build_ir_us coll =
  let rec walk acc (s : T.span_snapshot) =
    let acc =
      if String.starts_with ~prefix:"build_ir:" s.sp_name && s.sp_calls > 0 then
        let us = float_of_int s.sp_ns /. 1e3 /. float_of_int s.sp_calls in
        List.init s.sp_calls (fun _ -> us) @ acc
      else acc
    in
    List.fold_left walk acc s.sp_children
  in
  List.fold_left walk [] (T.spans coll)

(* The counters later changes may cite as exact counts. *)
let guarded_counters =
  [ "jf.build_ir"; "solver.worklist.pops"; "sccp.ssa_visits"; "incr.cone_size";
    "driver.constants_found" ]

(* Run [f] twice under fresh collectors and count the guarded counters
   whose values differ; each one is named on stderr. *)
let repeat_guard f =
  let run () =
    let c = T.create () in
    T.with_reporter c f;
    List.map (counter c) guarded_counters
  in
  let a = run () and b = run () in
  let diffs =
    List.filter_map
      (fun (name, (x, y)) -> if x <> y then Some (name, x, y) else None)
      (List.combine guarded_counters (List.combine a b))
  in
  List.iter
    (fun (name, x, y) ->
      Printf.eprintf "repeat guard: counter %s differs between runs: %d vs %d\n"
        name x y)
    diffs;
  set "repeat.mismatches" (float_of_int (List.length diffs))

(* ---------------- inputs ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let spec ~procs ~seed =
  {
    Workload.default_spec with
    seed;
    num_procs = procs;
    stmts_per_proc = 10;
  }

(* The configuration of a CLI run with default flags. *)
let default_config =
  Config.with_analysis `Const
    (Config.with_budget
       (Config.make ~kind:Jump_function.Passthrough ~return_jfs:true
          ~use_mod:true ()))

let config_of_flags ~jf ~no_mod ~no_ret =
  let kind =
    match jf with
    | "literal" -> Jump_function.Literal
    | "intraconst" -> Jump_function.Intraconst
    | "passthrough" -> Jump_function.Passthrough
    | "polynomial" -> Jump_function.Polynomial
    | s -> failwith ("unknown jump function " ^ s)
  in
  Config.with_analysis `Const
    (Config.with_budget
       (Config.make ~kind ~return_jfs:(not no_ret) ~use_mod:(not no_mod) ()))

let load path =
  match Jobs.load path with
  | Ok (_, prog) -> prog
  | Error o -> failwith (Printf.sprintf "cannot load %s: %s" path o.Jobs.err)

(* One replayed request, as a line of the plan file:
   key, "suite" or "file", target, jump function, no_mod, no_return_jfs. *)
type read = { key : string; prog : Prog.t; config : Config.t }

let read_plan path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> l <> "")
  |> List.map (fun line ->
         match String.split_on_char '\t' line with
         | [ key; kind; target; jf; no_mod; no_ret ] ->
           let prog =
             match kind with
             | "suite" -> (
               match Registry.find target with
               | Some e -> Registry.program e
               | None -> failwith ("unknown suite program " ^ target))
             | _ -> load target
           in
           {
             key;
             prog;
             config =
               config_of_flags ~jf ~no_mod:(no_mod = "1") ~no_ret:(no_ret = "1");
           }
         | _ -> failwith ("bad plan line: " ^ line))

(* Render every planned request the way serve does (one job domain) and
   return the in-process time of each, in milliseconds. *)
let render_refs ?outdir reads =
  List.map
    (fun r ->
      let t0 = now_ns () in
      let (outcome : Jobs.outcome) =
        span "render.reference" (fun () -> Jobs.analyze ~config:r.config ~jobs:1 r.prog)
      in
      let ms = ms_of_ns (now_ns () - t0) in
      if outcome.code <> 0 then
        failwith (Printf.sprintf "reference %s exited %d" r.key outcome.code);
      Option.iter
        (fun d -> write_file (Filename.concat d (r.key ^ ".out")) outcome.out)
        outdir;
      (r.key, ms))
    reads

(* ---------------- the per-layer pass over one program ---------------- *)

type tally = {
  mutable procs : int;
  mutable bytes : int;
  mutable tokens : int;
  mutable call_edges : int;
  mutable cfg_blocks : int;
  mutable ssa_names : int;
  mutable sites : int;
  mutable render_bytes : int;
}

let tally () =
  {
    procs = 0;
    bytes = 0;
    tokens = 0;
    call_edges = 0;
    cfg_blocks = 0;
    ssa_names = 0;
    sites = 0;
    render_bytes = 0;
  }

let frontend tl ~file src =
  with_gc "frontend" (fun () ->
      let toks = span "frontend.lex" (fun () -> Lexer.tokenize ~file src) in
      let ast = span "frontend.parse" (fun () -> Parser.parse_program ~file src) in
      let prog = span "frontend.sema" (fun () -> Sema.resolve ast) in
      tl.tokens <- tl.tokens + List.length toks;
      tl.bytes <- tl.bytes + String.length src;
      tl.procs <- tl.procs + List.length prog.Prog.procs;
      prog)

(* Lowering, dominators, SSA and symbolic values per procedure, built the
   way Jump_function.build_ir builds them but with the expression-id
   ceiling computed once for the whole program. *)
let ir_layers tl ~modref prog =
  let ceiling =
    span "ir.expr_id_ceiling" (fun () -> Ipcp_ir.Lower.expr_id_ceiling prog)
  in
  let globals = Prog.all_globals prog in
  List.iter
    (fun (proc : Prog.proc) ->
      let cfg =
        span "ir.lower" (fun () ->
            Ipcp_ir.Lower.lower_proc ~next_expr_id:ceiling proc)
      in
      let dom = span "ir.dom" (fun () -> Ipcp_ir.Dom.compute cfg) in
      let global_vars =
        List.map
          (fun (g : Prog.global) ->
            let key = Prog.global_key g in
            let var =
              match
                List.find_opt (fun (_, g') -> Prog.equal_global g g') proc.pglobals
              with
              | Some (alias, g') ->
                { Prog.vname = alias; vty = g'.gty; vdims = g'.gdims; vkind = Kglobal g' }
              | None ->
                { Prog.vname = "@g:" ^ key; vty = g.gty; vdims = g.gdims; vkind = Kglobal g }
            in
            (key, var))
          globals
      in
      let scalar_globals =
        List.filter (fun (_, (v : Prog.var)) -> Prog.is_scalar v) global_vars
      in
      let call_defs (c : Ipcp_ir.Cfg.call) =
        List.concat
          (List.mapi
             (fun pos (a : Prog.expr) ->
               match a.edesc with
               | Prog.Evar v
                 when Prog.is_scalar v
                      && Modref.modifies_formal modref c.c_callee pos ->
                 [ v ]
               | _ -> [])
             c.c_args)
        @ List.filter_map
            (fun (key, v) ->
              if Modref.modifies_global modref c.c_callee key then Some v
              else None)
            scalar_globals
      in
      let call_uses (_ : Ipcp_ir.Cfg.call) = List.map snd scalar_globals in
      let ssa =
        span "ir.ssa" (fun () -> Ipcp_ir.Ssa.build ~call_defs ~call_uses proc cfg dom)
      in
      let entry_const (v : Prog.var) =
        if proc.pkind = Prog.Pmain && Prog.is_scalar v && v.vty = Prog.Tint then
          Prog.data_value_in_main prog v
        else None
      in
      ignore
        (span "ir.ssa_value" (fun () ->
             Ipcp_analysis.Ssa_value.create ~entry_const ssa));
      tl.cfg_blocks <- tl.cfg_blocks + Ipcp_ir.Cfg.num_blocks cfg;
      tl.ssa_names <- tl.ssa_names + Array.length ssa.Ipcp_ir.Ssa.defs)
    prog.procs

(* The CLI's analyze path, layer by layer: prepare, stages 1-2, solve,
   substitution/SCCP, rendering.  [coll] is installed around the layers
   the analyzer reports on.  The full report, which substitutes again, is
   rendered outside it, so that [coll] counts what one `ipcp analyze`
   does; it only gives render.bytes. *)
let pipeline tl coll ~config ~jobs prog =
  let a = span "prepare" (fun () -> Driver.prepare prog) in
  let t =
    T.with_reporter coll (fun () ->
        with_gc "jump_function" (fun () ->
            span "jump_function.stage12" (fun () ->
                ignore (Driver.site_jfs_for a config prog.Prog.main)));
        let t =
          with_gc "solver" (fun () -> span "solver" (fun () -> Driver.solve config a))
        in
        ignore
          (with_gc "substitute" (fun () ->
               span "substitute" (fun () -> Substitute.apply ~jobs t)));
        ignore (span "render" (fun () -> Fmt.str "%a" Driver.pp_constants t));
        t)
  in
  let o = span "report" (fun () -> Jobs.analyze ~solved:t ~config ~jobs prog) in
  tl.sites <- tl.sites + List.length t.Driver.site_jfs;
  tl.render_bytes <- tl.render_bytes + String.length o.Jobs.out;
  (t, o)

(* Every layer of one program: frontend, prepare's call graph and MOD,
   the IR decomposition, and the pipeline. *)
let program_layers tl coll ~config ~jobs ~file src =
  let prog = frontend tl ~file src in
  let cg = span "prepare.callgraph" (fun () -> Callgraph.build prog) in
  let modref = span "prepare.modref" (fun () -> Modref.compute cg) in
  tl.call_edges <- tl.call_edges + List.length cg.Callgraph.edges;
  ir_layers tl ~modref prog;
  pipeline tl coll ~config ~jobs prog

let set_build_ir_percentiles coll =
  let us = build_ir_us coll in
  set "jump_function.build_ir_us_p50" (percentile us 50.0);
  set "jump_function.build_ir_us_p99" (percentile us 99.0);
  set "jump_function.build_ir_us_max" (percentile us 100.0)

(* The metrics every workload reports from its pass. *)
let set_layer_metrics tl coll =
  (* the CLI's frontend: the parser pulls its own tokens *)
  let frontend_ms = span_ms "frontend.parse" +. span_ms "frontend.sema" in
  set "frontend.lex_ms" (span_ms "frontend.lex");
  set "frontend.parse_ms" (max 0.0 (span_ms "frontend.parse" -. span_ms "frontend.lex"));
  set "frontend.sema_ms" (span_ms "frontend.sema");
  set "frontend.tokens" (float_of_int tl.tokens);
  set "frontend.mb_per_s"
    (if frontend_ms > 0.0 then float_of_int tl.bytes /. 1e6 /. (frontend_ms /. 1e3)
     else 0.0);
  set "prepare.ms" (span_ms "prepare");
  set "prepare.callgraph_ms" (span_ms "prepare.callgraph");
  set "prepare.modref_ms" (span_ms "prepare.modref");
  set "prepare.call_edges" (float_of_int tl.call_edges);
  set "stage1.ms" (program_span_ms coll "stage1:return_jfs");
  set "stage2.ms" (program_span_ms coll "stage2:forward_jfs");
  let build_ir = counter coll "jf.build_ir" in
  set "jump_function.build_ir_calls" (float_of_int build_ir);
  set "jump_function.build_ir_per_proc"
    (float_of_int build_ir /. float_of_int (max 1 tl.procs));
  set_build_ir_percentiles coll;
  set "jump_function.ret_oracle_evals" (float_of_int (counter coll "jf.ret_oracle.evals"));
  set "jump_function.sites" (float_of_int tl.sites);
  set "ir.lower_ms" (span_ms "ir.lower");
  set "ir.dom_ms" (span_ms "ir.dom");
  set "ir.ssa_ms" (span_ms "ir.ssa");
  set "ir.ssa_value_ms" (span_ms "ir.ssa_value");
  set "ir.cfg_blocks" (float_of_int tl.cfg_blocks);
  set "ir.ssa_names" (float_of_int tl.ssa_names);
  set "ir.expr_id_ceiling_ms" (span_ms "ir.expr_id_ceiling");
  set "solver.ms" (program_span_ms coll "stage3:propagate");
  set "solver.worklist_pops" (float_of_int (counter coll "solver.worklist.pops"));
  set "solver.jf_evaluations" (float_of_int (counter coll "solver.jf_evaluations"));
  set "solver.meets" (float_of_int (counter coll "solver.meets"));
  set "substitute.ms" (span_ms "substitute");
  set "sccp.runs" (float_of_int (counter coll "sccp.runs"));
  set "sccp.ssa_visits" (float_of_int (counter coll "sccp.ssa_visits"));
  set "sccp.flow_edge_visits" (float_of_int (counter coll "sccp.flow_edge_visits"));
  set "engine.domains" (float_of_int (counter coll "engine.domains"));
  set "engine.tasks" (float_of_int (counter coll "engine.tasks"));
  set "render.ms" (span_ms "render");
  set "render.bytes" (float_of_int tl.render_bytes);
  set "driver.constants_found" (float_of_int (counter coll "driver.constants_found"));
  set_gc ()

let set_coverage ~wall_ns =
  set "trace.coverage"
    (if wall_ns > 0 then float_of_int !covered_ns /. float_of_int wall_ns else 0.0)

(* Median wall time of [f] without and with a collector installed. *)
let overhead_frac ~reps f =
  let time g =
    let t0 = now_ns () in
    g ();
    float_of_int (now_ns () - t0)
  in
  (* alternated, so that neither side gets the warmer half of the run *)
  let pairs =
    List.init reps (fun _ ->
        let p = time f in
        (p, time (fun () -> T.with_reporter (T.create ()) f)))
  in
  let plain = List.map fst pairs and traced = List.map snd pairs in
  let p = percentile plain 50.0 in
  set "trace.overhead_frac" (if p > 0.0 then (percentile traced 50.0 -. p) /. p else 0.0)

(* ---------------- workloads ---------------- *)

let jobs = Ipcp_engine.Engine.default_jobs ()

let trace_tables golden =
  let t0 = now_ns () in
  let tl = tally () and coll = T.create () in
  List.iter
    (fun (e : Registry.entry) ->
      ignore (program_layers tl coll ~config:default_config ~jobs ~file:e.name e.source))
    Registry.entries;
  set_layer_metrics tl coll;
  (* the tables job itself, as `ipcp tables` runs it; its counters and
     spans replace the single-configuration ones above *)
  let tcoll = T.create () in
  let o = span "tables" (fun () -> T.with_reporter tcoll (fun () -> Jobs.tables ~jobs ())) in
  let wall_ns = now_ns () - t0 in
  set_coverage ~wall_ns;
  set "stage1.ms" (program_span_ms tcoll "stage1:return_jfs");
  set "stage2.ms" (program_span_ms tcoll "stage2:forward_jfs");
  set "solver.ms" (program_span_ms tcoll "stage3:propagate");
  set_build_ir_percentiles tcoll;
  List.iter
    (fun (m, c) -> set m (float_of_int (counter tcoll c)))
    [
      ("jump_function.build_ir_calls", "jf.build_ir");
      ("jump_function.ret_oracle_evals", "jf.ret_oracle.evals");
      ("solver.worklist_pops", "solver.worklist.pops");
      ("solver.jf_evaluations", "solver.jf_evaluations");
      ("solver.meets", "solver.meets");
      ("sccp.runs", "sccp.runs");
      ("sccp.ssa_visits", "sccp.ssa_visits");
      ("sccp.flow_edge_visits", "sccp.flow_edge_visits");
      ("engine.domains", "engine.domains");
      ("engine.tasks", "engine.tasks");
      ("complete.rounds", "complete.rounds");
      ("driver.constants_found", "driver.constants_found");
    ];
  set "complete.ms" (program_span_ms tcoll "complete:round");
  let reused = counter tcoll "driver.stage12_reused" in
  let rebuilt = counter tcoll "jf.build_ir" in
  set "complete.stage12_reuse_ratio"
    (if reused + rebuilt > 0 then float_of_int reused /. float_of_int (reused + rebuilt)
     else 0.0);
  set "render.bytes" (float_of_int (String.length o.Jobs.out));
  let tables () = ignore (Jobs.tables ~jobs ()) in
  overhead_frac ~reps:5 tables;
  repeat_guard tables;
  set "check.failures" (if o.Jobs.out = read_file golden then 0.0 else 1.0)

let trace_analyze small large =
  let t0 = now_ns () in
  let per_size file =
    let tl = tally () and coll = T.create () in
    let t, _ = program_layers tl coll ~config:default_config ~jobs ~file (read_file file) in
    (tl, coll, t)
  in
  (* the CLI's own steps; the benchmark's IR decomposition and its second
     rendering of the report are left out *)
  let pipeline_ms () =
    List.fold_left (fun acc n -> acc +. span_ms n) 0.0
      [ "frontend.parse"; "frontend.sema"; "prepare"; "jump_function.stage12";
        "solver"; "substitute"; "render" ]
  in
  let stl, scoll, _ = per_size small in
  let small_ms = pipeline_ms () in
  (* the large program's figures are the reported ones *)
  Hashtbl.reset span_ns;
  Hashtbl.reset gc_acc;
  let tl, coll, t = per_size large in
  let large_ms = pipeline_ms () in
  set_layer_metrics tl coll;
  set "analyze.scaling_exponent"
    (log (large_ms /. small_ms)
    /. log (float_of_int tl.procs /. float_of_int stl.procs));
  let report = span "certify" (fun () -> Ipcp_certify.Certify.check t) in
  if not (Ipcp_certify.Certify.ok report) then
    failwith "the large program's result does not certify";
  set "certify.ms" (span_ms "certify");
  let p50_small = percentile (build_ir_us scoll) 50.0 in
  set "jump_function.build_ir_growth"
    (if p50_small > 0.0 then percentile (build_ir_us coll) 50.0 /. p50_small else 0.0);
  set "driver.constants_found" (float_of_int (Driver.constants_count t));
  set_coverage ~wall_ns:(now_ns () - t0);
  let small_prog = load small in
  let analyze_small () =
    ignore (Jobs.analyze ~config:default_config ~jobs small_prog)
  in
  overhead_frac ~reps:5 analyze_small;
  repeat_guard analyze_small

(* The two sessions' ping-pong walks over versions 0..n, as run.py
   replays them: session 0 starts at version 0, session 1 at version n. *)
let walk ~n ~offset k =
  let p = (offset + k) mod (2 * n) in
  if p <= n then p else (2 * n) - p

let trace_serve plan dir n =
  let t0 = now_ns () in
  let reads = span "inputs" (fun () -> read_plan plan) in
  let version k = Filename.concat dir (Printf.sprintf "v%d.f" k) in
  let tl = tally () and coll = T.create () in
  (* the layers under the reads and the writes' from-scratch analyses *)
  List.iter
    (fun (e : Registry.entry) ->
      ignore (program_layers tl coll ~config:default_config ~jobs:1 ~file:e.name e.source))
    Registry.entries;
  ignore
    (program_layers tl coll ~config:default_config ~jobs:1 ~file:(version 0)
       (read_file (version 0)));
  set_layer_metrics tl coll;
  let times = render_refs reads in
  List.iter (fun (k, ms) -> set ("inproc.read." ^ k) ms) times;
  (* the writes: each session walks a full cycle of versions *)
  let progs = span "inputs" (fun () -> Array.init (n + 1) (fun k -> load (version k))) in
  let session_walks () =
    List.concat_map
      (fun offset ->
        let sess = ref (Incr.start default_config progs.(walk ~n ~offset 0)) in
        List.init (2 * n) (fun i ->
            let prog = progs.(walk ~n ~offset (i + 1)) in
            let t1 = now_ns () in
            let s, stats = Incr.update ~prev:!sess prog in
            let ms = ms_of_ns (now_ns () - t1) in
            sess := s;
            (ms, stats)))
      [ 0; n ]
  in
  let icoll = T.create () in
  let updates = span "incr" (fun () -> T.with_reporter icoll session_walks) in
  set "incr.update_ms" (percentile (List.map fst updates) 50.0);
  let sum f = List.fold_left (fun acc (_, s) -> acc + f s) 0 updates in
  set "incr.cone_size" (float_of_int (sum (fun s -> s.Incr.cone_size)));
  let reused = sum (fun s -> s.Incr.procs_reused)
  and resolved = sum (fun s -> s.Incr.procs_resolved) in
  set "incr.reuse_ratio"
    (if reused + resolved > 0 then
       float_of_int reused /. float_of_int (reused + resolved)
     else 0.0);
  set_coverage ~wall_ns:(now_ns () - t0);
  let read_all () = ignore (render_refs reads) in
  overhead_frac ~reps:5 read_all;
  repeat_guard (fun () -> ignore (session_walks ()))

(* One point of the scaling sweep: the per-layer times of one program. *)
let sweep_point file =
  let t0 = now_ns () in
  let tl = tally () and coll = T.create () in
  ignore (program_layers tl coll ~config:default_config ~jobs ~file (read_file file));
  set_layer_metrics tl coll;
  set "procs" (float_of_int tl.procs);
  set_coverage ~wall_ns:(now_ns () - t0)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "suite" ] -> List.iter print_endline Registry.names
  | [ "gen"; procs; seed; out ] ->
    write_file out
      (Workload.generate (spec ~procs:(int_of_string procs) ~seed:(int_of_string seed)))
  | [ "edits"; procs; seed; n; dir ] ->
    List.iteri
      (fun k src -> write_file (Filename.concat dir (Printf.sprintf "v%d.f" k)) src)
      (Workload.edits
         (spec ~procs:(int_of_string procs) ~seed:(int_of_string seed))
         ~seed:(int_of_string seed) ~n:(int_of_string n))
  | [ "refs"; plan; outdir ] -> ignore (render_refs ~outdir (read_plan plan))
  | [ "trace-tables"; golden ] -> trace_tables golden; print_metrics ()
  | [ "trace-analyze"; small; large ] -> trace_analyze small large; print_metrics ()
  | [ "trace-serve"; plan; dir; n ] ->
    trace_serve plan dir (int_of_string n);
    print_metrics ()
  | [ "sweep-point"; file ] -> sweep_point file; print_metrics ()
  | _ ->
    prerr_endline "usage: see the header of perfbench/layers.ml";
    exit 2
