(* Benchmark harness.

   Running this executable regenerates every evaluation artifact of the
   paper:
   - Tables 1, 2 and 3 (printed first — counts, not timings);
   - the §3.1.5 cost claims, as bechamel timing benchmarks:
     * jump-function construction cost per implementation,
     * interprocedural propagation cost per implementation,
     * end-to-end analysis cost per suite program,
     * solver cost vs. program size (generated workloads);
   - the procedure-cloning ablation (the Metzger–Stroud effect).

     dune exec bench/main.exe
*)

(* the raw ns clock from bechamel.monotonic_clock — aliased before [open
   Toolkit], which shadows the module name with its measure witness *)
module Mclock = Monotonic_clock

open Bechamel
open Toolkit
open Ipcp_core
open Ipcp_suite
open Ipcp_telemetry

(* All timings flow through the telemetry subsystem: every bechamel
   estimate is recorded as a `bench.<name>` distribution observation (ns)
   in [collector], and the whole document — including the analysis-internal
   counters accumulated while the tables were regenerated under the same
   collector — is appended to IPCP_BENCH_PROFILE (default
   BENCH_profile.jsonl, one JSON document per line), so BENCH_*.json
   artifacts come from the same code path as `ipcp --profile-json`. *)
let collector = Telemetry.create ()

let profile_path () =
  match Sys.getenv_opt "IPCP_BENCH_PROFILE" with
  | Some p when p <> "" -> Some p
  | Some _ -> None
  | None -> Some "BENCH_profile.jsonl"

(* ------------------------------------------------------------------ *)
(* Timing infrastructure *)

let ols =
  Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]

let instances = Instance.[ monotonic_clock ]

let run_benchmarks (test : Test.t) =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

let print_results label results =
  Fmt.pr "@.--- %s@." label;
  match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> Fmt.pr "  (no results)@."
  | Some tbl ->
    let rows =
      Hashtbl.fold
        (fun name ols acc ->
          let ns =
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> est
            | _ -> Float.nan
          in
          (name, ns) :: acc)
        tbl []
      |> List.sort compare
    in
    List.iter
      (fun (name, ns) ->
        if Float.is_nan ns then Fmt.pr "  %-44s (no estimate)@." name
        else begin
          Telemetry.with_reporter collector (fun () ->
              Telemetry.observe ("bench." ^ name) (int_of_float ns));
          if ns > 1_000_000.0 then
            Fmt.pr "  %-44s %10.3f ms/run@." name (ns /. 1_000_000.0)
          else Fmt.pr "  %-44s %10.3f us/run@." name (ns /. 1_000.0)
        end)
      rows

(* ------------------------------------------------------------------ *)
(* §3.1.5: cost of the four jump-function implementations *)

let representative =
  [ "doduc"; "linpackd"; "ocean"; "simple" ]
  |> List.filter_map Registry.find

let kind_label k = Jump_function.kind_name k

(* jump-function construction: stages 1 and 2 of the pipeline, measured by
   building the full analysis but skipping propagation *)
let construction_tests =
  List.concat_map
    (fun (e : Registry.entry) ->
      let prog = Registry.program e in
      List.map
        (fun kind ->
          let config = Config.make ~kind ~interprocedural:false () in
          Test.make
            ~name:(Fmt.str "construct/%s/%s" (kind_label kind) e.name)
            (Staged.stage (fun () -> ignore (Driver.analyze config prog))))
        Jump_function.all_kinds)
    representative

(* propagation only: jump functions prebuilt, measure Solver.run *)
let propagation_tests =
  List.concat_map
    (fun (e : Registry.entry) ->
      let prog = Registry.program e in
      let global_keys =
        List.map Ipcp_frontend.Prog.global_key (Ipcp_frontend.Prog.all_globals prog)
      in
      List.map
        (fun kind ->
          let t = Driver.analyze (Config.make ~kind ()) prog in
          let cg = t.Driver.cg and site_jfs = t.Driver.site_jfs in
          Test.make
            ~name:(Fmt.str "propagate/%s/%s" (kind_label kind) e.name)
            (Staged.stage (fun () ->
                 ignore (Solver.run cg ~site_jfs ~global_keys))))
        Jump_function.all_kinds)
    representative

(* end-to-end: analyze + substitute, the paper's recommended configuration *)
let end_to_end_tests =
  List.map
    (fun (e : Registry.entry) ->
      let prog = Registry.program e in
      Test.make
        ~name:(Fmt.str "endtoend/passthrough/%s" e.name)
        (Staged.stage (fun () -> ignore (Substitute.count Config.default prog))))
    Registry.entries

(* scaling: solver cost vs. program size on generated workloads *)
let scaling_tests =
  List.map
    (fun n ->
      let prog =
        Workload.generate_resolved
          { Workload.default_spec with seed = 42; num_procs = n; stmts_per_proc = 10 }
      in
      Test.make
        ~name:(Fmt.str "scale/polynomial/procs=%02d" n)
        (Staged.stage (fun () ->
             ignore
               (Substitute.count
                  (Config.make ~kind:Jump_function.Polynomial ())
                  prog))))
    [ 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Jump-function size statistics (§3.1.5: "cost(J) approaches the cost of
   pass-through jump functions and |support(J)| approaches 1") *)

let jf_statistics () =
  Fmt.pr "@.--- jump-function expression statistics (suite-wide)@.";
  Fmt.pr "  %-14s %10s %10s %14s@." "kind" "sites" "total size" "total support";
  List.iter
    (fun kind ->
      let sites, size, support =
        List.fold_left
          (fun (ns, sz, sp) (e : Registry.entry) ->
            let t = Driver.analyze (Config.make ~kind ()) (Registry.program e) in
            List.fold_left
              (fun (ns, sz, sp) sjf ->
                ( ns + 1,
                  sz + Jump_function.site_cost sjf,
                  sp + Jump_function.site_support sjf ))
              (ns, sz, sp) t.Driver.site_jfs)
          (0, 0, 0) Registry.entries
      in
      Fmt.pr "  %-14s %10d %10d %14d@." (kind_label kind) sites size support)
    Jump_function.all_kinds

(* ------------------------------------------------------------------ *)
(* Tables 2-3 regeneration: legacy one-shot API vs the staged API
   (shared per-program artifacts) vs the staged API fanned across worker
   domains.  Wall-clock, best of [reps]; each variant's time lands in the
   profile document as a bench.tables_regen/<variant> observation. *)

let time_best_ns ~reps f =
  let best = ref max_int in
  for _ = 1 to reps do
    let t0 = Mclock.now () in
    f ();
    let t1 = Mclock.now () in
    best := min !best (Int64.to_int (Int64.sub t1 t0))
  done;
  !best

let tables_regen_comparison () =
  Fmt.pr "@.--- Tables 2-3 regeneration wall-clock (staged API)@.";
  let reps = 3 in
  (* legacy: every table cell re-runs the full pipeline (parse artifacts
     are still shared via the registry, but call graph, MOD and IR are
     rebuilt per configuration) *)
  let legacy () =
    List.iter
      (fun (e : Registry.entry) ->
        let prog = Registry.program e in
        let cnt ?return_jfs ?use_mod ?interprocedural kind =
          ignore
            (Substitute.count
               (Config.make ~kind ?return_jfs ?use_mod ?interprocedural ())
               prog)
        in
        (* Table 2: six configurations *)
        cnt Jump_function.Polynomial;
        cnt Jump_function.Passthrough;
        cnt Jump_function.Intraconst;
        cnt Jump_function.Literal;
        cnt ~return_jfs:false Jump_function.Polynomial;
        cnt ~return_jfs:false Jump_function.Passthrough;
        (* Table 3: the three non-iterated columns plus complete *)
        cnt ~use_mod:false Jump_function.Polynomial;
        cnt Jump_function.Polynomial;
        ignore (Ipcp_incr.Complete.run prog);
        cnt ~return_jfs:false ~interprocedural:false Jump_function.Passthrough)
      Registry.entries
  in
  (* staged: one prepare per program, shared by the Table 2 and Table 3
     rows (and, inside, one stage-1/2 build per (use_mod × return_jfs)
     variant instead of one per configuration, and one solve per distinct
     configuration) *)
  let staged ~jobs () =
    Ipcp_engine.Engine.iter ~jobs
      (fun (e : Registry.entry) -> ignore (Tables.rows e))
      Registry.entries
  in
  let jobs_n = max 4 (Ipcp_engine.Engine.default_jobs ()) in
  let variants =
    [
      ("legacy", legacy);
      ("staged_jobs1", staged ~jobs:1);
      (Fmt.str "staged_jobs%d" jobs_n, staged ~jobs:jobs_n);
    ]
  in
  let timed =
    List.map
      (fun (name, f) ->
        let ns = time_best_ns ~reps f in
        Telemetry.with_reporter collector (fun () ->
            Telemetry.observe ("bench.tables_regen/" ^ name) ns);
        Fmt.pr "  %-44s %10.3f ms/run@." ("tables_regen/" ^ name)
          (float_of_int ns /. 1_000_000.0);
        (name, ns))
      variants
  in
  match timed with
  | (_, legacy_ns) :: ((_, jobs1_ns) :: _ as staged_runs) ->
    let jobs_n_ns = snd (List.nth staged_runs (List.length staged_runs - 1)) in
    Fmt.pr "  speedup staged jobs=1 vs legacy:   %.2fx@."
      (float_of_int legacy_ns /. float_of_int jobs1_ns);
    Fmt.pr "  speedup staged jobs=%d vs jobs=1:   %.2fx@." jobs_n
      (float_of_int jobs1_ns /. float_of_int jobs_n_ns)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Incremental re-analysis: full analyze vs update.

   For each workload size, derive one small seeded edit and compare a
   from-scratch Driver.analyze of the edited version against
   Incr.update from the previous version's session.  An update copies
   what the edit left unchanged, and solves the whole program again
   unless no jump function changed (the procedures solved again are
   printed per size); the no-op update (identical source) isolates the
   fixed incremental overhead — identity, grafting, artifact reuse, the
   comparison of site jump functions.  All three times land in the
   profile document as bench.incr/* observations. *)

let incr_comparison () =
  Fmt.pr "@.--- incremental re-analysis: full vs update@.";
  let module Incr = Ipcp_incr.Incr in
  let reps = 3 in
  let config = Config.default in
  List.iter
    (fun n ->
      let spec =
        { Workload.default_spec with seed = 42; num_procs = n; stmts_per_proc = 8 }
      in
      match Workload.edits spec ~seed:n ~n:1 with
      | [ base_src; edited_src ] ->
        let parse src =
          Ipcp_frontend.Sema.parse_and_resolve ~file:"<bench>" src
        in
        let base = parse base_src and edited = parse edited_src in
        let prev = Incr.start config base in
        let sess, stats = Incr.update ~prev edited in
        let edited_again = parse edited_src in
        let record name ns =
          Telemetry.with_reporter collector (fun () ->
              Telemetry.observe ("bench." ^ name) ns)
        in
        let full_ns =
          time_best_ns ~reps (fun () -> ignore (Driver.analyze config edited))
        in
        let update_ns =
          time_best_ns ~reps (fun () -> ignore (Incr.update ~prev edited))
        in
        let noop_ns =
          time_best_ns ~reps (fun () ->
              ignore (Incr.update ~prev:sess edited_again))
        in
        record (Fmt.str "incr/full_analyze/procs=%03d" n) full_ns;
        record (Fmt.str "incr/update/procs=%03d" n) update_ns;
        record (Fmt.str "incr/noop_update/procs=%03d" n) noop_ns;
        Fmt.pr
          "  procs=%03d  full %8.3f ms   update %8.3f ms (solved %d/%d, %.2fx) \
           noop %8.3f ms@."
          n
          (float_of_int full_ns /. 1_000_000.0)
          (float_of_int update_ns /. 1_000_000.0)
          stats.Incr.cone_size stats.Incr.total_procs
          (float_of_int full_ns /. float_of_int update_ns)
          (float_of_int noop_ns /. 1_000_000.0)
      | _ -> Fmt.pr "  procs=%03d  (edit generation failed)@." n)
    [ 50; 100; 200 ]

(* ------------------------------------------------------------------ *)
(* Cloning ablation *)

let cloning_ablation () =
  Fmt.pr "@.--- procedure cloning ablation (constants substituted)@.";
  Fmt.pr "  %-12s %10s %10s %8s@." "program" "before" "after" "clones";
  List.iter
    (fun (e : Registry.entry) ->
      let prog = Registry.program e in
      let before = Substitute.count Config.polynomial_with_mod prog in
      let cloned, clones = Cloning.clone_to_fixpoint prog in
      let after = Substitute.count Config.polynomial_with_mod cloned in
      Fmt.pr "  %-12s %10d %10d %8d@." e.name before after clones)
    Registry.entries

(* ------------------------------------------------------------------ *)

let () =
  (* the paper's tables, under the collector: the bench profile document
     also carries the analysis-internal counters of a full suite run *)
  Telemetry.with_reporter collector (fun () ->
      Telemetry.span "bench:tables" (fun () ->
          Fmt.pr "%a@." (fun ppf () -> Tables.pp_all ~jobs:1 ppf ()) ());
      Telemetry.span "bench:jf_statistics" jf_statistics;
      Telemetry.span "bench:cloning_ablation" cloning_ablation);
  tables_regen_comparison ();
  incr_comparison ();
  (* the timing benches *)
  print_results "jump-function construction time (§3.1.5)"
    (run_benchmarks (Test.make_grouped ~name:"" construction_tests));
  print_results "interprocedural propagation time (§3.1.5)"
    (run_benchmarks (Test.make_grouped ~name:"" propagation_tests));
  print_results "end-to-end analysis time"
    (run_benchmarks (Test.make_grouped ~name:"" end_to_end_tests));
  print_results "solver scaling with program size"
    (run_benchmarks (Test.make_grouped ~name:"" scaling_tests));
  match profile_path () with
  | None -> ()
  | Some path ->
    Telemetry.append_json path collector;
    Fmt.pr "@.--- profile document appended to %s@." path
