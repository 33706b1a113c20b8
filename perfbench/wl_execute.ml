(* Workload [execute]: set-up compiles every registry program under
   new-phase1+2 (the paper's full algorithm) and under
   no-null-opt-no-trap (its baseline) for IA32, and loads both natively
   with [Native.compile].  The run then executes the programs over and
   over, in a seeded shuffled order, on [Interp.run] and on
   [Native.run]; every run's checksum is checked against the OCaml
   reference [W.expected], never against the compiler.

   Why: the interpreter ([vm]) and the native backend ([backend]) do
   nearly all of the work, and the optimizer runs only in set-up.  The
   two configurations separate the cost of checks from the rest of
   execution.  One run of a program is too noisy to stand alone, so
   each program is run many times and its median taken.

   Scales are fixed per program and engine: an interpreter run takes a
   few ms and a native run at least 1 ms on a 2-core x86-64 host, so
   neither timer resolution nor call overhead dominates. *)

open Nullelim
open Common
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry

(* program, interpreter scale, native scale *)
let scales =
  [
    ("assignment", 4, 160); ("bitfield", 8, 384); ("fourier", 48, 256);
    ("fp-emulation", 4, 256); ("huffman", 8, 256); ("idea-encryption", 8, 256);
    ("lu-decomposition", 8, 48); ("neural-net", 8, 384); ("numeric-sort", 4, 24);
    ("string-sort", 8, 64); ("compress", 4, 192); ("db", 4, 256); ("jack", 8, 64);
    ("javac", 4, 64); ("jess", 12, 384); ("mpegaudio", 1, 96); ("mtrt", 4, 512);
  ]

let arch = Arch.ia32_windows

(* 8 rounds are 544 runs, about a second between reference samples *)
let window_rounds = 8
let configs = [| Config.new_full; Config.no_null_opt_no_trap |]

(* one runnable cell: a program under a configuration on an engine *)
type engine = Interp_engine of Ir.program | Native_engine of Native.compiled

type cell = {
  prog : string;
  cfg : int;  (** index into [configs]: 0 = new, 1 = base *)
  engine : engine;
  expect : int;
  times : Samples.t;  (** ms per run, whole run *)
  window : Samples.t;  (** ms per run, current window *)
}

let is_native c = match c.engine with Native_engine _ -> true | Interp_engine _ -> false

let close_all cells =
  List.iter
    (fun c -> match c.engine with Native_engine h -> Native.close h | Interp_engine _ -> ())
    cells

let run ~seed ~seconds ~trace =
  let work =
    List.map
      (fun (name, si, sn) ->
        match W.find name with
        | Some w -> (w, si, sn, w.W.expected ~scale:si, w.W.expected ~scale:sn)
        | None -> failwith ("no workload " ^ name))
      scales
  in
  if List.length work <> List.length (Registry.all ()) then
    failwith "execute: the scale table must cover every registry program";
  let load_ms = ref [] and emit = ref [] and close_ms = ref [] in
  let compile_checked w cfg p =
    let c = Compiler.compile configs.(cfg) ~arch p in
    (match Compiler.reconcile c with
    | Ok () -> ()
    | Error m -> fail "execute set-up %s/%s: %s" w.W.name configs.(cfg).Config.name m);
    c.Compiler.program
  in
  let setup () =
    List.concat_map
      (fun (w, si, sn, ei, en) ->
        let pi = w.W.build ~scale:si and pn = w.W.build ~scale:sn in
        List.concat_map
          (fun cfg ->
            let interp =
              { prog = w.W.name; cfg; engine = Interp_engine (compile_checked w cfg pi);
                expect = ei; times = Samples.create (); window = Samples.create () }
            in
            let code = compile_checked w cfg pn in
            if trace && cfg = 0 then begin
              match time_ms (fun () -> Emit_c.emit ~trap_area:arch.Arch.trap_area code) with
              | Ok em, ms -> emit := (w.W.name, ms, em.Emit_c.em_stats.Emit_c.ec_c_bytes) :: !emit
              | Error m, _ -> fail "emit %s: %s" w.W.name m
            end;
            match time_ms (fun () -> Native.compile ~arch code) with
            | Ok h, ms ->
              load_ms := (w.W.name, cfg, ms) :: !load_ms;
              [ interp; { prog = w.W.name; cfg; engine = Native_engine h; expect = en;
                times = Samples.create (); window = Samples.create () } ]
            | Error m, _ ->
              fail "native load %s/%s: %s" w.W.name configs.(cfg).Config.name m;
              [ interp ])
          [ 0; 1 ])
      work
  in
  let cells =
    timed_setups ~scaled:false ~repeats:3 setup (fun cells ->
        List.iter
          (fun c ->
            match c.engine with
            | Native_engine h ->
              let (), ms = time_ms (fun () -> Native.close h) in
              close_ms := ms :: !close_ms
            | Interp_engine _ -> ())
          cells)
  in
  Fun.protect ~finally:(fun () -> close_all cells) @@ fun () ->
  let cells = Array.of_list cells in
  let st = rng seed "execute-order" in
  let order = Array.init (Array.length cells) Fun.id in
  (* per-run accounting of the traced rounds *)
  let untraced_lat = Samples.create () and traced_lat = Samples.create () in
  let interp_instrs = ref 0 and interp_ms = ref 0. in
  let native_kernel_ns = ref 0. and native_call_ms = ref 0. in
  let cycles = Hashtbl.create 64 and checks = Hashtbl.create 64 in
  let n = ref 0 and rounds = ref 0 in
  let windows = ref [] in
  let check c (r : Interp.result) =
    match r.Interp.outcome with
    | Interp.Returned (Some (Value.Vint v)) when v = c.expect -> ()
    | o ->
      fail "%s/%s on %s: %s (expected %d)" c.prog configs.(c.cfg).Config.name
        (if is_native c then "native" else "interp")
        (Fmt.str "%a" Interp.pp_outcome o) c.expect
  in
  let gc0 = Gc.quick_stat () in
  let win = Windows.start () in
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  while now_ns () < deadline do
    Stats.shuffle st order;
    let traced_round = trace && !rounds land 1 = 1 in
    Array.iter
      (fun i ->
        let c = cells.(i) in
        attempt ();
        let ms =
          match c.engine with
          | Interp_engine p ->
            let r, ms = time_ms (fun () -> Interp.run ~arch p []) in
            check c r;
            if traced_round then begin
              let k = r.Interp.counters in
              interp_instrs := !interp_instrs + k.Interp.instrs;
              interp_ms := !interp_ms +. ms;
              Hashtbl.replace cycles (c.prog, c.cfg) k.Interp.cycles;
              Hashtbl.replace checks (c.prog, c.cfg) (k.Interp.explicit_checks, k.Interp.implicit_checks)
            end;
            ms
          | Native_engine h ->
            let r, ms = time_ms (fun () -> Native.run h) in
            check c r.Native.r_result;
            if traced_round then begin
              native_kernel_ns := !native_kernel_ns +. Int64.to_float r.Native.r_wall_ns;
              native_call_ms := !native_call_ms +. ms
            end;
            ms
        in
        Samples.push c.times ms;
        Samples.push c.window ms;
        incr n;
        if trace then Samples.push (if traced_round then traced_lat else untraced_lat) ms)
      order;
    incr rounds;
    if !rounds mod window_rounds = 0 || now_ns () >= deadline then begin
      let scale, secs = Windows.close win in
      windows :=
        (Array.map (fun c -> Array.map (fun ms -> ms *. scale) (Samples.to_array c.window)) cells,
         secs *. scale)
        :: !windows;
      Array.iter (fun c -> Samples.clear c.window) cells
    end
  done;
  let elapsed = ms_since t_start /. 1e3 in
  let gc1 = Gc.quick_stat () in
  let med c = Stats.median (Samples.to_array c.times) in
  (* times scaled to the reference host, window by window; per cell the
     median run, over cells their geomean *)
  let pooled = Array.mapi (fun i _ -> Array.concat (List.map (fun (w, _) -> w.(i)) !windows)) cells in
  let note = Printf.sprintf "at reference speed, %d windows" (List.length !windows) in
  add ~samples:!n
    ~note:(note ^ "; geomean over program x config x engine of the median run")
    "op_ms_p50" "ms" (Stats.geomean (Array.map Stats.median pooled));
  add_p99 "op_ms_p99" "ms" (Array.concat (Array.to_list pooled));
  add ~samples:!n ~note "ops_per_s" "1/s"
    (float_of_int !n /. List.fold_left (fun a (_, s) -> a +. s) 0. !windows);
  add ~samples:!n "gc.minor_mw_per_op" "Mw"
    ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int !n /. 1e6);
  add ~samples:!n "gc.major_per_s" "1/s"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. elapsed);
  let cell prog cfg native =
    List.find_opt
      (fun c -> c.prog = prog && c.cfg = cfg && is_native c = native)
      (Array.to_list cells)
  in
  let progs = List.map (fun (w, _, _, _, _) -> w.W.name) work in
  let per_prog cfg native =
    List.filter_map (fun p -> Option.map (fun c -> (p, med c, Samples.length c.times)) (cell p cfg native)) progs
  in
  List.iter (fun (p, m, k) -> add ~samples:k ("vm.ms." ^ p) "ms" m) (per_prog 0 false);
  List.iter (fun (p, m, k) -> add ~samples:k ("backend.us." ^ p) "us" (m *. 1e3)) (per_prog 0 true);
  let geo l = Stats.geomean (Array.of_list (List.map (fun (_, m, _) -> m) l)) in
  add ~samples:!rounds ~note:"geomean over programs, new-phase1+2"
    "vm.interp_ms" "ms" (geo (per_prog 0 false));
  add ~samples:!rounds ~note:"geomean over programs, new-phase1+2"
    "backend.native_us" "us" (geo (per_prog 0 true) *. 1e3);
  let loads = Array.of_list (List.map (fun (_, _, ms) -> ms) !load_ms) in
  add ~samples:(Array.length loads) "backend.load_ms" "ms" (Stats.median loads);
  if trace then begin
    let sum_cfg tbl cfg f =
      Hashtbl.fold (fun (_, c) v acc -> if c = cfg then acc + f v else acc) tbl 0
    in
    add ~samples:(List.length progs) ~note:"model cycles, one run of every program"
      "vm.sim_cycles" "count" (float_of_int (sum_cfg cycles 0 Fun.id));
    add ~samples:(List.length progs) "vm.cycles_base" "count"
      ~note:"model cycles of no-null-opt-no-trap, one run of every program"
      (float_of_int (sum_cfg cycles 1 Fun.id));
    let cyc p cfg = float_of_int (Hashtbl.find cycles (p, cfg)) in
    let have p = Hashtbl.mem cycles (p, 0) && Hashtbl.mem cycles (p, 1) in
    let ratio_progs = List.filter have progs in
    add ~samples:(List.length ratio_progs)
      ~note:"geomean over programs of new-phase1+2 / no-null-opt-no-trap cycles (base: vm.cycles_base)"
      "vm.cycles_ratio" "ratio"
      (Stats.geomean (Array.of_list (List.map (fun p -> cyc p 0 /. cyc p 1) ratio_progs)));
    add ~samples:(List.length progs) "vm.explicit_checks" "count"
      (float_of_int (sum_cfg checks 0 fst));
    add ~samples:(List.length progs) "vm.implicit_checks" "count"
      (float_of_int (sum_cfg checks 0 snd));
    add ~samples:!n "vm.minstr_per_s" "Minstr/s"
      (float_of_int !interp_instrs /. (!interp_ms /. 1e3) /. 1e6);
    add ~samples:!n ~note:"share of Native.run spent in the generated code"
      "backend.kernel_frac" "ratio" (!native_kernel_ns /. 1e6 /. !native_call_ms);
    (* programs with a native median under both configurations and model
       cycles under both; every program should have all four *)
    let paired =
      List.filter_map
        (fun p ->
          match (cell p 0 true, cell p 1 true) with
          | Some nw, Some base when have p -> Some (p, med nw, med base)
          | _ -> None)
        progs
    in
    if List.length paired < List.length progs then
      fail "execute: %d of %d programs lack a native run or model cycles under both configurations"
        (List.length progs - List.length paired) (List.length progs);
    (* with too few programs there is nothing to rank; that was counted *)
    if List.length paired >= 3 then begin
      let paired_geo f = Stats.geomean (Array.of_list (List.map f paired)) in
      add ~samples:(List.length paired) "backend.run_base_us" "us"
        ~note:"geomean over programs, native no-null-opt-no-trap"
        (paired_geo (fun (_, _, b) -> b) *. 1e3);
      add ~samples:(List.length paired)
        ~note:"geomean over programs of native new-phase1+2 / no-null-opt-no-trap (base: backend.run_base_us)"
        "backend.run_ratio" "ratio" (paired_geo (fun (_, m, b) -> m /. b));
      (* does the model's predicted improvement order the programs the way
         the measured native improvement does? *)
      add ~samples:(List.length paired) "backend.model_rank_corr" "ratio"
        (Stats.spearman
           (Array.of_list (List.map (fun (p, _, _) -> cyc p 1 /. cyc p 0) paired))
           (Array.of_list (List.map (fun (_, m, b) -> b /. m) paired)))
    end;
    let emits = Array.of_list !emit in
    let emit_ms = Array.map (fun (_, ms, _) -> ms) emits in
    add ~samples:(Array.length emits) "backend.emit_ms" "ms" (Stats.median emit_ms);
    add ~samples:(Array.length emits) "backend.c_kb" "KB"
      (Stats.mean (Array.map (fun (_, _, b) -> float_of_int b /. 1e3) emits));
    let per_prog_median l p =
      Stats.median (Array.of_list (List.filter_map (fun (q, ms) -> if q = p then Some ms else None) l))
    in
    let loads0 = List.filter_map (fun (p, cfg, ms) -> if cfg = 0 then Some (p, ms) else None) !load_ms in
    let emits_by = List.map (fun (p, ms, _) -> (p, ms)) !emit in
    let cc =
      Array.of_list
        (List.map (fun p -> per_prog_median loads0 p -. per_prog_median emits_by p) progs)
    in
    add ~samples:(Array.length cc)
      ~note:"median over programs of Native.compile minus Emit_c.emit, same program"
      "backend.cc_dlopen_ms" "ms" (Stats.median cc);
    let closes = Array.of_list !close_ms in
    add ~samples:(Array.length closes) "backend.close_ms" "ms" (Stats.median closes);
    Kernels.measure ();
    add ~samples:!n ~note:"interp+native run p50 in traced rounds / in untraced rounds - 1"
      "trace.overhead_frac" "ratio"
      ((Stats.median (Samples.to_array traced_lat) /. Stats.median (Samples.to_array untraced_lat)) -. 1.)
  end
