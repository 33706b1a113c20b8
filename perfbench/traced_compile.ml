(* The pass-by-pass compile of the traced run.  It performs the steps
   of [Compiler.compile] that shape the artifact, in the same order —
   copy the program, re-seed the provenance counter, count checks, open
   the decision log, run each pass of [Compiler.passes] with the same
   per-pass timings, counters and metrics, count checks again — with a
   monotonic span around every pass.  The compile workload checks, per
   job, that its artifact prints byte-identically to [Compiler.compile]'s
   and that its decision log is the same, and, over the run, that its
   wall time matches the plain compile's, so the spans describe the
   compile users get. *)

open Nullelim
open Common
module Decision = Nullelim_obs.Decision
module Metrics = Nullelim_obs.Metrics

type t = {
  program : Ir.program;
  decisions : Decision.event list;
  wall_ms : float;  (** whole traced compile *)
  passes : (string * float) array;  (** each pass span, in run order *)
}

let compile (cfg : Config.t) ~(arch : Arch.t) (p : Ir.program) : t =
  let t0 = now_ns () in
  let passes = Array.of_list (Compiler.passes cfg ~arch) in
  let n = Array.length passes in
  (* preallocated, so recording a span allocates nothing between spans *)
  let starts = Array.make n 0 and ends = Array.make n 0 in
  let p' = Ir.copy_program p in
  Ir.seed_sites p';
  ignore (Compiler.count_all_checks p');
  let timings = Pipeline.new_timings () and counters = Pipeline.new_counters () in
  let metrics = Metrics.create () in
  let (), decisions =
    Decision.with_log (fun () ->
        Decision.set_tier (-1);
        for k = 0 to n - 1 do
          starts.(k) <- now_ns ();
          Pipeline.run ~timings ~counters ~metrics [ passes.(k) ] p';
          ends.(k) <- now_ns ()
        done)
  in
  ignore (Compiler.count_all_checks p');
  let t1 = now_ns () in
  let ms a b = float_of_int (b - a) /. 1e6 in
  {
    program = p';
    decisions;
    wall_ms = ms t0 t1;
    passes = Array.mapi (fun k (ps : Pipeline.pass) -> (ps.Pipeline.name, ms starts.(k) ends.(k))) passes;
  }
