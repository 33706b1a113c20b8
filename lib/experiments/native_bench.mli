(** Measured trap costs through the native backend: real wall-clock
    nanoseconds for explicit checks, implicit (trap-guarded) checks and
    full SIGSEGV recovery, replacing the simulator's modeled cycle
    constants with measurements (see EXPERIMENTS.md "Measured trap
    costs").

    Three pointer-chasing microkernels differ only in check
    representation (explicit / implicit / none) so their wall-time
    deltas isolate the per-check cost; a fourth kernel forces one
    hardware trap per iteration and measures the recovery round trip.
    See the implementation header for the anti-optimization reasoning
    (data-dependent chase, identical setjmp frames). *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Json = Nullelim_obs.Obs_json

type result = {
  nb_arch : string;
  nb_checks : int;  (** dereference steps (= checks) per kernel run *)
  nb_traps : int;  (** recoveries driven by the recovery kernel *)
  nb_explicit_ns : float;  (** whole-kernel wall time, best of repeats *)
  nb_implicit_ns : float;
  nb_baseline_ns : float;
  nb_explicit_check_ns : float;
      (** median over repeats of (explicit - implicit) / checks; may be
          negative when the cost is below {!nb_check_noise_ns} *)
  nb_implicit_check_ns : float;
      (** median over repeats of (implicit - baseline) / checks — the
          zero-cost claim, measured *)
  nb_check_noise_ns : float;
      (** half the range of the per-repeat per-check samples, the larger
          of the two costs'; a cost at or below it is reported as "below
          resolution" and recorded as [0] by {!pp} and {!to_json} *)
  nb_recovery_ns : float;  (** per recovered trap *)
  nb_model_explicit_check_ns : float;
      (** what the simulator's cost model charges per explicit check *)
  nb_implicit_check_instrs : int;
      (** instructions the emitter spent on implicit checks: always
          [0] *)
}

val available : unit -> bool
(** Same probe as {!Native.available}. *)

val collect :
  ?iters:int ->
  ?traps:int ->
  ?repeats:int ->
  arch:Arch.t ->
  unit ->
  (result, string) Stdlib.result
(** Run the four kernels ([8 * iters] checks each, [traps] recoveries,
    [repeats] runs each; defaults 500k/2k/3).  Kernel times are the
    best run; per-check costs and their noise come from every run.  [Error] when the native
    backend is unavailable or a kernel misbehaves. *)

val schema : string
(** ["nullelim-native-bench/1"] — the ["native"] member schema in
    BENCH_results.json. *)

val to_json : result -> Json.t
val unavailable_json : string -> Json.t
(** The ["native"] member when the host cannot run the backend:
    [{"available": false, "reason": ...}] — CI's cc-masked leg asserts
    this shape. *)

val validate : Json.t -> (unit, string) Stdlib.result
(** Either shape of the document: the measured costs, or
    [{"available": false, "reason": ...}].  [check_noise_ns] is
    optional, so documents written before it existed still pass; when
    it is present no check cost may be negative. *)

val pp : result Fmt.t
