(** Shape tests for the experiment engine: the qualitative claims of the
    paper's evaluation (who wins, where, and why) are asserted here so
    the reproduction recorded in EXPERIMENTS.md cannot silently rot.

    These run at scale 1 to stay fast; the bench harness reproduces the
    full tables at larger scales. *)

module E = Nullelim_experiments.Experiments
open Nullelim

let scale = 1
let check_bool = Alcotest.(check bool)

let value rows w cfg =
  let row = List.find (fun (r : E.row) -> r.E.workload = w) rows in
  E.cell_value row cfg

(* Table 1 / Figure 8 *)
let t1 = lazy (E.table1 ~scale)

let test_assignment_story () =
  let t1 = Lazy.force t1 in
  let full = value t1 "assignment" "new-phase1+2" in
  let old = value t1 "assignment" "old-null-check" in
  let trap = value t1 "assignment" "no-null-opt-trap" in
  let base = value t1 "assignment" "no-null-opt-no-trap" in
  check_bool "full beats old by a clear margin" true (full > old *. 1.05);
  check_bool "old beats trap baseline" true (old > trap);
  check_bool "trap beats no-trap" true (trap > base)

let test_multidim_kernels_beat_old () =
  let t1 = Lazy.force t1 in
  List.iter
    (fun w ->
      let full = value t1 w "new-phase1+2" in
      let old = value t1 w "old-null-check" in
      check_bool (w ^ ": full > old") true (full > old *. 1.02))
    [ "assignment"; "idea-encryption"; "string-sort"; "huffman" ]

let test_fourier_flat () =
  let t1 = Lazy.force t1 in
  let full = value t1 "fourier" "new-phase1+2" in
  let base = value t1 "fourier" "no-null-opt-no-trap" in
  check_bool "fourier is the control: < 3% spread" true
    (full /. base < 1.03)

let test_monotonic_configs () =
  let t1 = Lazy.force t1 in
  List.iter
    (fun (r : E.row) ->
      let v c = E.cell_value r c in
      let full = v "new-phase1+2"
      and p1 = v "new-phase1-only"
      and old = v "old-null-check"
      and trap = v "no-null-opt-trap"
      and base = v "no-null-opt-no-trap" in
      (* allow half-a-percent noise in the simulated ordering *)
      let geq a b = a >= b *. 0.995 in
      check_bool (r.E.workload ^ ": full >= phase1") true (geq full p1);
      check_bool (r.E.workload ^ ": phase1 >= old") true (geq p1 old);
      check_bool (r.E.workload ^ ": old >= trap") true (geq old trap);
      check_bool (r.E.workload ^ ": trap >= no-trap") true (geq trap base))
    t1

(* Table 2 / Figure 9: the mtrt phase-2 story *)
let test_mtrt_phase2_wins () =
  let arch = Arch.ia32_windows in
  let w = Option.get (Nullelim_workloads.Registry.find "mtrt") in
  let cy cfg = E.run_cycles ~arch cfg w ~scale in
  let full = cy Config.new_full in
  let p1 = cy Config.new_phase1_only in
  let old = cy Config.old_null_check in
  check_bool
    (Printf.sprintf "phase2 (%d) strictly beats phase1-only (%d) on mtrt" full
       p1)
    true (full < p1);
  check_bool
    (Printf.sprintf "phase1-only (%d) beats old (%d) on mtrt" p1 old)
    true (p1 < old)

(* Figures 10/11 *)
let test_hotspot_comparison () =
  let ratios = E.versus_hotspot ~higher_better:true (Lazy.force t1) in
  let mean =
    List.fold_left
      (fun acc (r : E.row) -> acc +. E.cell_value r "ours/hotspot")
      0. ratios
    /. float_of_int (List.length ratios)
  in
  check_bool
    (Printf.sprintf "ours beats the hotspot model on jBYTEmark (mean %.3f)"
       mean)
    true (mean > 1.02)

(* Table 4 / Figure 13 *)
let test_compile_breakdown () =
  let rows = E.table4 ~scale in
  List.iter
    (fun (r : E.breakdown_row) ->
      check_bool
        (Printf.sprintf "%s: new null-check opt costs more than old (%f vs %f)"
           r.E.bw_name r.E.new_nullcheck r.E.old_nullcheck)
        true
        (r.E.new_nullcheck > r.E.old_nullcheck))
    rows

(* Table 3: the HotSpot model compiles slower *)
let test_hotspot_compiles_slower () =
  let ours = E.table3 ~cfg:Config.new_full ~scale () in
  let hs = E.table3 ~cfg:Config.hotspot_model ~scale () in
  let total rows =
    List.fold_left (fun a (r : E.compile_row) -> a +. r.E.compile_time) 0. rows
  in
  check_bool "hotspot-model compile time exceeds ours" true
    (total hs > total ours)

(* Table 6 / Figure 14: speculation *)
let test_speculation_story () =
  let t6 = E.table6 ~scale in
  (* the kernels with the Figure 6 shape gain from speculation *)
  List.iter
    (fun w ->
      let spec = value t6 w "aix-speculation" in
      let nospec = value t6 w "aix-no-speculation" in
      check_bool (w ^ ": speculation helps on AIX") true (spec > nospec *. 1.01))
    [ "fp-emulation"; "neural-net" ];
  (* and never hurts *)
  List.iter
    (fun (r : E.row) ->
      let spec = E.cell_value r "aix-speculation" in
      let nospec = E.cell_value r "aix-no-speculation" in
      check_bool (r.E.workload ^ ": speculation never hurts") true
        (spec >= nospec *. 0.995))
    t6

(* Illegal Implicit: performs like the full optimization but is rejected
   by the verifier on AIX *)
let test_illegal_implicit_story () =
  let t6 = E.table6 ~scale in
  List.iter
    (fun (r : E.row) ->
      let ill = E.cell_value r "aix-illegal-implicit" in
      let none = E.cell_value r "aix-no-null-opt" in
      check_bool (r.E.workload ^ ": illegal implicit >= no-opt") true
        (ill >= none *. 0.995))
    t6;
  (* at least one workload's illegal-implicit compilation is rejected *)
  let rejected = ref 0 in
  List.iter
    (fun (w : Nullelim_workloads.Workload.t) ->
      let prog = w.Nullelim_workloads.Workload.build ~scale in
      let c = Compiler.compile Config.aix_illegal_implicit ~arch:Arch.ppc_aix prog in
      if Verify.verify_program ~arch:Arch.ppc_aix c.Compiler.program <> [] then
        incr rejected)
    (Nullelim_workloads.Registry.all ());
  check_bool "verifier rejects illegal implicit somewhere" true (!rejected > 0)

(* Ablation: the Figure 2 iteration claim and the inlining dependency *)
let test_ablation () =
  let rows = E.ablation ~scale in
  let v w c =
    let row = List.find (fun (r : E.row) -> r.E.workload = w) rows in
    E.cell_value row c
  in
  (* iterating phase 1 with the helpers must beat a single round on the
     kernels whose hoists feed each other across rounds (LU's k1-indexed
     rows, neural-net's update pass); assignment loads its row outside
     the inner loops already, so one round suffices there *)
  check_bool "neural-net: 4 iters beat 1" true
    (v "neural-net" "full (4 iters)" < v "neural-net" "1 iteration");
  check_bool "lu: 4 iters beat 1" true
    (v "lu-decomposition" "full (4 iters)" < v "lu-decomposition" "1 iteration");
  (* the mtrt result depends on inlining *)
  check_bool "mtrt: no inlining is slower" true
    (v "mtrt" "full (4 iters)" < v "mtrt" "no inlining");
  (* disabling the array optimizations hurts the array kernels *)
  check_bool "lu: weak arrays slower" true
    (v "lu-decomposition" "full (4 iters)"
    < v "lu-decomposition" "no simplify/arrays")

(* ------------------------------------------------------------------ *)
(* Document registry                                                   *)
(* ------------------------------------------------------------------ *)

module Schemas = Nullelim_experiments.Schemas
module PR = Nullelim_experiments.Profile_report
module SS = Nullelim_experiments.Steady_state
module LG = Nullelim_experiments.Loadgen
module NB = Nullelim_experiments.Native_bench

let set_field k v = function
  | Json.Obj kvs ->
    Json.Obj (List.map (fun (k', v') -> (k', if k' = k then v else v')) kvs)
  | j -> j

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* One row per registered schema: the member key it takes in a bench
   report, a document from its producer, and a corruption of that
   document its validator must reject. *)
let registry_table () =
  let metrics = Obs.Metrics.create () in
  let tenant t = [ ("tenant", t) ] in
  Obs.Metrics.inc
    (Obs.Metrics.counter metrics ~labels:(tenant "0")
       "svc_requests_submitted_total")
    3;
  Obs.Metrics.inc
    (Obs.Metrics.counter metrics ~labels:(tenant "0")
       "svc_requests_completed_total")
    2;
  Obs.Metrics.observe
    (Obs.Metrics.histogram metrics ~labels:(tenant "0") "svc_compile_seconds")
    0.01;
  Obs.Metrics.set (Obs.Metrics.gauge metrics "depth") 1.;
  let profile = Obs.Profile.create () in
  Obs.Profile.hit_block profile ~func:"main" ~block:0;
  let recorder = Obs.Recorder.create ~capacity:16 () in
  let ctx = { Obs.Ctx.none with Obs.Ctx.cx_tenant = 0; cx_request = 1 } in
  List.iter
    (fun k -> Obs.Recorder.record ~ctx ~a:1 recorder k)
    Obs.Recorder.[ Req_enqueue; Req_start; Req_done ];
  let slo =
    Obs.Slo.create metrics
      [
        Obs.Slo.latency ~name:"compile-latency" ~metric:"svc_compile_seconds"
          ~threshold:0.1 ~target:0.99;
      ]
  in
  let w name = Option.get (Nullelim_workloads.Registry.find name) in
  let dynamic =
    PR.dynamic_json ~scale:1
      [
        List.map
          (fun cfg ->
            PR.collect ~scale:1 ~arch:Arch.ia32_windows cfg (w "bitfield"))
          PR.profile_configs;
      ]
  in
  let tiered =
    let config = { Config.new_full with Config.promote_calls = 3 } in
    SS.tiered_json ~mode:"sync"
      [ SS.collect ~config ~runs:6 ~arch:Arch.ia32_windows (w "bitfield") ]
      (SS.forced_deopt ~config ~arch:Arch.ia32_windows ())
  in
  let loadgen =
    LG.to_json
      {
        LG.lg_domains = 2;
        lg_queue_capacity = 16;
        lg_duration = 0.5;
        lg_seed = 7;
        lg_tenants = 1;
        lg_tenant_cap = 0;
        lg_calibration =
          { LG.cal_jobs = 4; cal_mean_seconds = 0.002; cal_base_rate = 500. };
        lg_rows =
          [
            {
              LG.lr_multiplier = 0.5;
              lr_offered_rate = 250.;
              lr_offered = 10;
              lr_completed = 9;
              lr_shed = 1;
              lr_elapsed = 0.04;
              lr_throughput = 225.;
              lr_mean_ms = 2.;
              lr_p50_ms = 2.;
              lr_p90_ms = 3.;
              lr_p99_ms = 4.;
              lr_p999_ms = 4.;
              lr_hist_p99_ms = 4.;
              lr_tenants =
                [
                  {
                    LG.tn_tenant = 0;
                    tn_offered = 10;
                    tn_completed = 9;
                    tn_shed = 1;
                  };
                ];
            };
          ];
        lg_saturation_throughput = 225.;
        lg_overhead = None;
      }
  in
  let native =
    NB.to_json
      {
        NB.nb_arch = "ia32-windows";
        nb_checks = 800;
        nb_traps = 10;
        nb_explicit_ns = 900.;
        nb_implicit_ns = 800.;
        nb_baseline_ns = 800.;
        nb_explicit_check_ns = 0.125;
        nb_implicit_check_ns = -0.01;
        nb_check_noise_ns = 0.02;
        nb_recovery_ns = 2000.;
        nb_model_explicit_check_ns = 0.5;
        nb_implicit_check_instrs = 0;
      }
  in
  let fuzz =
    Fuzz_report.to_json
      {
        Fuzz_report.fz_seed = 42;
        fz_count = 1;
        fz_gen_version = Gen.gen_version;
        fz_size = 24;
        fz_arch = "ia32-windows";
        fz_jobs = 0;
        fz_mutate = false;
        fz_passed = 1;
        fz_skipped = 0;
        fz_failed = 0;
        fz_pool_compiles = 0;
        fz_cache_hits = 0;
        fz_seconds = 0.1;
        fz_distribution = Fuzz_report.empty_distribution;
        fz_failures = [];
      }
  in
  let corpus =
    Fuzz_report.corpus_entry_to_json
      {
        Fuzz_report.ce_seed = 1;
        ce_gen_version = Gen.gen_version;
        ce_size = 24;
        ce_note = "";
      }
  in
  [
    ( "metrics",
      Obs.Metrics.snapshot metrics,
      set_field "counters" (Json.Str "x") );
    ( "profile",
      Obs.Profile.to_json profile,
      set_field "other_traps" (Json.Str "x") );
    ( "flight",
      Obs.Recorder.to_json recorder,
      set_field "dropped" (Json.Int (-1)) );
    ("slo", Obs.Slo.to_json slo, set_field "short_window" (Json.Float 0.));
    ( "timelines",
      Obs.Timeline.to_json
        (Obs.Timeline.of_events (Obs.Recorder.dump recorder)),
      set_field "requests" (Json.Int 999) );
    ("fuzz", fuzz, set_field "mutate" (Json.Int 1));
    ("corpus", corpus, set_field "seed" (Json.Str "x"));
    ("dynamic", dynamic, set_field "rows" (Json.List [ Json.Obj [] ]));
    ("tiered", tiered, set_field "mode" (Json.Str "warp"));
    ("loadgen", loadgen, set_field "rows" (Json.List []));
    ( "tenants",
      Status.tenants_json metrics,
      set_field "tenants" (Json.List [ Json.Obj [ ("tenant", Json.Int 0) ] ]) );
    ("native", native, set_field "checks" (Json.Int 0));
    ( "native_noise",
      native,
      set_field "implicit_check_ns" (Json.Float (-0.01)) );
    ( "native_before_noise",
      (match native with
      | Json.Obj kvs -> Json.Obj (List.remove_assoc "check_noise_ns" kvs)
      | j -> j),
      set_field "explicit_check_ns" (Json.Str "x") );
    ( "native_fallback",
      NB.unavailable_json "no cc",
      set_field "reason" (Json.Int 1) );
  ]

let test_registry () =
  let table = registry_table () in
  let baseline =
    let text =
      In_channel.with_open_bin "../BENCH_baseline.json" In_channel.input_all
    in
    match Json.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCH_baseline.json: %s" e
  in
  let with_member key doc =
    match baseline with
    | Json.Obj kvs -> Json.Obj (List.remove_assoc key kvs @ [ (key, doc) ])
    | _ -> Alcotest.fail "baseline is not an object"
  in
  (* the table covers the whole registry *)
  let schema_of doc =
    match Json.member "schema" doc with Some (Json.Str s) -> s | _ -> ""
  in
  Alcotest.(check (list string))
    "every registered schema has a row"
    (List.sort_uniq compare (List.map (fun d -> d.Json.schema) Schemas.all))
    (List.sort_uniq compare
       (List.map (fun (_, doc, _) -> schema_of doc) table));
  (match Schemas.validate baseline with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "BENCH_baseline.json: %s" e);
  List.iter
    (fun (key, doc, corrupt) ->
      (* (a) the producer's document passes, bare and as a member *)
      (match Schemas.validate doc with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" key e);
      (match Schemas.validate (with_member key doc) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "baseline + %s: %s" key e);
      (* (b) a corrupted member fails the whole report, naming the key *)
      match Schemas.validate (with_member key (corrupt doc)) with
      | Ok _ -> Alcotest.failf "corrupt %s member accepted" key
      | Error e ->
        if not (contains e (Printf.sprintf "%S" key)) then
          Alcotest.failf "error for corrupt %s does not name it: %s" key e)
    table;
  (* (c) an unknown schema is rejected by name, bare and as a member *)
  let unknown = Json.Obj [ ("schema", Json.Str "nullelim-nope/1") ] in
  List.iter
    (fun doc ->
      match Schemas.validate doc with
      | Ok _ -> Alcotest.fail "unknown schema accepted"
      | Error e ->
        if not (contains e "nullelim-nope/1") then
          Alcotest.failf "error does not name the schema: %s" e)
    [ unknown; with_member "mystery" unknown ]

let () =
  Alcotest.run "experiments"
    [
      ( "table1-fig8",
        [
          Alcotest.test_case "assignment story" `Quick test_assignment_story;
          Alcotest.test_case "multidim kernels beat old" `Quick
            test_multidim_kernels_beat_old;
          Alcotest.test_case "fourier flat" `Quick test_fourier_flat;
          Alcotest.test_case "config ordering" `Quick test_monotonic_configs;
        ] );
      ( "table2-fig9",
        [ Alcotest.test_case "mtrt phase2 win" `Quick test_mtrt_phase2_wins ] );
      ( "fig10-11",
        [ Alcotest.test_case "vs hotspot model" `Quick test_hotspot_comparison ]
      );
      ( "tables3-5",
        [
          Alcotest.test_case "null-check opt breakdown" `Quick
            test_compile_breakdown;
          Alcotest.test_case "hotspot compiles slower" `Quick
            test_hotspot_compiles_slower;
        ] );
      ( "ablation",
        [ Alcotest.test_case "iteration/inlining/arrays" `Quick test_ablation ]
      );
      ( "registry",
        [ Alcotest.test_case "every document type" `Quick test_registry ] );
      ( "tables6-7",
        [
          Alcotest.test_case "speculation story" `Quick test_speculation_story;
          Alcotest.test_case "illegal implicit story" `Quick
            test_illegal_implicit_story;
        ] );
    ]
