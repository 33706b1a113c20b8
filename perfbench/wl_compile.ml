(* Workload [compile]: a closed loop with one caller, no service and no
   cache.  Every registry program at scale 1 is compiled under all ten
   configurations of the paper's two platforms (the Windows suite on
   IA32, the AIX suite on PowerPC) in a seeded shuffled order, round
   after round, for the run length.

   Why: the optimizer ([opt]), its data-flow engine ([dataflow]) and the
   driver ([jit]) do nearly all of the work here; execution, the service
   queue and the code cache do not run, so a change to those must not
   move this workload.  Scale 1 suffices because compile time does not
   depend on scale (1-4 ms per program at scales 1, 32 and 256). *)

open Nullelim
open Common
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry

type job = { prog_name : string; prog : Ir.program; cfg : Config.t; arch : Arch.t }

let jobs_of programs =
  List.concat_map
    (fun (name, prog) ->
      List.map (fun cfg -> { prog_name = name; prog; cfg; arch = Arch.ia32_windows })
        Config.windows_suite
      @ List.map (fun cfg -> { prog_name = name; prog; cfg; arch = Arch.ppc_aix })
          Config.aix_suite)
    programs
  |> Array.of_list

let program_instrs (p : Ir.program) =
  Hashtbl.fold (fun _ f acc -> acc + Ir.instr_count f) p.Ir.funcs 0

let check_reconcile (j : job) (c : Compiler.compiled) =
  match Compiler.reconcile c with
  | Ok () -> ()
  | Error m -> fail "compile %s/%s: %s" j.prog_name j.cfg.Config.name m

let pp_program p = Fmt.str "%a" Ir_pp.pp_program p

(* The traced compile must take the plain compile's wall time within
   this share, or its pass spans would describe another compile than
   the one users get.  The gate compares the two compiles of each
   traced job, run back to back, and takes the median ratio over the
   run, separately for jobs whose traced compile ran first and second
   (the second of two compiles of a job runs about 4% faster), then
   the geometric mean of the two: a slow burst on a shared host hits
   both compiles of a pair, and a stall in one compile moves a median
   by one rank, not a sum by its length.  On a 2-core x86-64 VM the
   ratio read 0.992-0.994 on four seeds, one of them run beside two
   CPU-bound processes. *)
let wall_eps = 0.03

(* 5 rounds are 850 compiles, about a second between reference samples *)
let window_rounds = 5

let run ~seed ~seconds ~trace =
  let programs () =
    List.map (fun (w : W.t) -> (w.W.name, w.W.build ~scale:1)) (Registry.all ())
  in
  (* set-up: build the corpus and compile every job once, so lazy
     initialisation and first-touch allocation are paid before timing *)
  let jobs =
    timed_setups ~scaled:true ~repeats:5
      (fun () ->
        let jobs = jobs_of (programs ()) in
        Array.iter (fun j -> ignore (Compiler.compile j.cfg ~arch:j.arch j.prog)) jobs;
        jobs)
      ignore
  in
  let st = rng seed "compile-order" in
  let order = Array.init (Array.length jobs) Fun.id in
  let n = ref 0 and window = Samples.create () in
  let windows = ref [] in
  let per_prog = Hashtbl.create 17 in
  let round_instrs = ref 0 in
  (* traced-run accumulators; in the traced run odd rounds also run the
     traced compile, even rounds do not, and the plain compile times of
     the two kinds of round give the tracing overhead *)
  let lat_untraced_rounds = Samples.create () and lat_traced_rounds = Samples.create () in
  let n_traced = ref 0 and traced_wall = ref 0. in
  (* plain / traced wall time of each traced job, by which ran first *)
  let ratio_traced_first = Samples.create () and ratio_plain_first = Samples.create () in
  let pass_total = Hashtbl.create 32 in
  let solver = [| 0; 0; 0 |] and ir_in = ref 0 and ir_out = ref 0 in
  let rounds = ref 0 in
  let gc0 = Gc.quick_stat () in
  let win = Windows.start () in
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  while now_ns () < deadline do
    Stats.shuffle st order;
    let traced_round = trace && !rounds land 1 = 1 in
    let instrs = ref 0 in
    Array.iter
      (fun i ->
        let j = jobs.(i) in
        attempt ();
        (* In traced rounds every other job runs the traced compile
           first: whichever of two compiles of a job runs second is about
           4% faster, and alternating cancels that out of the comparison
           of their wall times. *)
        let traced_first = traced_round && !n land 1 = 1 in
        let pre = if traced_first then Some (Traced_compile.compile j.cfg ~arch:j.arch j.prog) else None in
        let c, ms = time_ms (fun () -> Compiler.compile j.cfg ~arch:j.arch j.prog) in
        incr n;
        Samples.push window ms;
        (match Hashtbl.find_opt per_prog j.prog_name with
        | Some b -> Samples.push b ms
        | None ->
          let b = Samples.create () in
          Samples.push b ms;
          Hashtbl.add per_prog j.prog_name b);
        check_reconcile j c;
        instrs := !instrs + program_instrs c.Compiler.program;
        if trace && not traced_round then Samples.push lat_untraced_rounds ms;
        if traced_round then begin
          if not traced_first then Samples.push lat_traced_rounds ms;
          let tc =
            match pre with Some tc -> tc | None -> Traced_compile.compile j.cfg ~arch:j.arch j.prog
          in
          if pp_program tc.Traced_compile.program <> pp_program c.Compiler.program
          then fail "traced compile of %s/%s: artifact differs" j.prog_name j.cfg.Config.name;
          if tc.Traced_compile.decisions <> c.Compiler.decisions then
            fail "traced compile of %s/%s: decision log differs" j.prog_name
              j.cfg.Config.name;
          incr n_traced;
          traced_wall := !traced_wall +. tc.Traced_compile.wall_ms;
          Samples.push
            (if traced_first then ratio_traced_first else ratio_plain_first)
            (ms /. tc.Traced_compile.wall_ms);
          Array.iter
            (fun (name, ms) ->
              Hashtbl.replace pass_total name
                (ms +. Option.value ~default:0. (Hashtbl.find_opt pass_total name)))
            tc.Traced_compile.passes;
          let s = c.Compiler.solver in
          solver.(0) <- solver.(0) + s.Solver.transfers;
          solver.(1) <- solver.(1) + s.Solver.visits;
          solver.(2) <- solver.(2) + s.Solver.pushes;
          ir_in := !ir_in + program_instrs j.prog;
          ir_out := !ir_out + program_instrs c.Compiler.program
        end)
      order;
    incr rounds;
    round_instrs := !instrs;
    if !rounds mod window_rounds = 0 || now_ns () >= deadline then begin
      let scale, secs = Windows.close win in
      windows := (Array.map (fun ms -> ms *. scale) (Samples.to_array window), secs *. scale) :: !windows;
      Samples.clear window
    end
  done;
  let elapsed = ms_since t_start /. 1e3 in
  let gc1 = Gc.quick_stat () in
  let n = !n in
  let nf = float_of_int n in
  (* times scaled to the reference host, window by window *)
  let pooled = Array.concat (List.map fst !windows) in
  let note = Printf.sprintf "at reference speed, %d windows" (List.length !windows) in
  add ~samples:n ~note "op_ms_p50" "ms" (Stats.median pooled);
  add_p99 "op_ms_p99" "ms" pooled;
  add ~samples:n ~note "ops_per_s" "1/s"
    (nf /. List.fold_left (fun a (_, s) -> a +. s) 0. !windows);
  add ~samples:!rounds "ir.code_instrs" "count" (float_of_int !round_instrs);
  add ~samples:n "gc.minor_mw_per_op" "Mw"
    ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. nf /. 1e6);
  add ~samples:n "gc.major_per_s" "1/s"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. elapsed);
  Hashtbl.iter
    (fun name b -> add ~samples:(Samples.length b) ("jit.ms." ^ name) "ms" (Stats.median (Samples.to_array b)))
    per_prog;
  if trace then begin
    let nt = float_of_int (max 1 !n_traced) in
    let pass_sum = Hashtbl.fold (fun _ ms acc -> acc +. ms) pass_total 0. in
    (* the driver's self time: the traced compile's wall time minus its
       pass spans, so that jit.self_ms + the opt.* rows add up to the
       traced wall time *)
    let self_ms = (!traced_wall -. pass_sum) /. nt in
    add ~samples:!n_traced "jit.self_ms" "ms" self_ms;
    Hashtbl.iter
      (fun name total ->
        let name = String.map (fun c -> if c = ':' then '.' else c) name in
        add ~samples:!n_traced ("opt." ^ name ^ ".ms") "ms" (total /. nt))
      pass_total;
    if self_ms < 0. then fail "jit.self_ms is negative: the pass spans exceed the traced wall time";
    let med b = Stats.median (Samples.to_array b) in
    let gap = sqrt (med ratio_traced_first *. med ratio_plain_first) -. 1. in
    add ~samples:!n_traced
      ~note:(Printf.sprintf "median plain / traced compile wall - 1 (gate: within %g)" wall_eps)
      "jit.wall_gap_frac" "ratio" gap;
    if not (Float.abs gap <= wall_eps) then
      fail "plain compile wall time is %.4f of the traced compile's (bound %g)" (1. +. gap)
        wall_eps;
    add ~samples:!n_traced "dataflow.transfers" "count" (float_of_int solver.(0) /. nt);
    add ~samples:!n_traced "dataflow.visits" "count" (float_of_int solver.(1) /. nt);
    add ~samples:!n_traced "dataflow.pushes" "count" (float_of_int solver.(2) /. nt);
    add ~samples:!n_traced "ir.instrs_in" "count" (float_of_int !ir_in /. nt);
    add ~samples:!n_traced "ir.instrs_out" "count" (float_of_int !ir_out /. nt);
    add ~samples:n
      ~note:"p50 of plain compiles run before a traced one / in untraced rounds - 1"
      "trace.overhead_frac" "ratio"
      ((med lat_traced_rounds /. med lat_untraced_rounds) -. 1.)
  end
