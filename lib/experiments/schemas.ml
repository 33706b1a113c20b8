(** The registry of versioned JSON documents: the one place a new
    document type is added.  [validate-json], the bench harness and the
    tests all validate through {!validate}, which dispatches on a
    document's ["schema"] field. *)

module Json = Nullelim_obs.Obs_json
module Obs = Nullelim_obs.Obs
module Fuzz_report = Nullelim_gen.Report
module Status = Nullelim_svc.Status

(** The bench report ([BENCH_results.json], [BENCH_baseline.json]): its
    members are the other documents, keyed by what produced them. *)
let bench = "nullelim-bench/1"

let all : Json.doc list =
  let doc schema validate = { Json.schema; validate } in
  [
    doc Obs.Metrics.schema Obs.Metrics.validate;
    doc Obs.Profile.schema Obs.Profile.validate;
    doc Obs.Recorder.schema Obs.Recorder.validate;
    doc Obs.Slo.schema Obs.Slo.validate;
    doc Obs.Timeline.schema Obs.Timeline.validate;
    doc Fuzz_report.schema Fuzz_report.validate;
    doc Fuzz_report.corpus_schema (fun j ->
        Result.map ignore (Fuzz_report.corpus_entry_of_json j));
    doc Profile_report.dynamic_schema Profile_report.validate_dynamic;
    doc Steady_state.tiered_schema Steady_state.validate_tiered;
    doc Loadgen.schema Loadgen.validate;
    doc Status.tenants_schema Status.validate_tenants;
    doc Native_bench.schema Native_bench.validate;
  ]

let validate : Json.t -> (string, string) result =
  Json.validate_doc ~report:bench all
