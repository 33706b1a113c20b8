(** Native-backend tests: guard-page probe, signal-handler edge cases
    (unknown fault PC re-raises the default action; a nested trap during
    recovery aborts), zero-instruction implicit checks in the emitted C,
    trap recovery to the correct [Ir.site], a workload executed
    natively, a module emitted as one C source (including a bracket the
    C compiler deletes), [Native.compile]'s compiler and [dlopen]
    failure paths, and a fixed-seed 100-program differential fuzz
    smoke against the interpreter.

    Every test degrades to a pass with a notice when the native backend
    is unavailable (non-linux/x86-64, or no usable C compiler) — the
    interp fallback keeps the suite green anywhere. *)

open Nullelim
module H = Helpers

let ia32 = Arch.ia32_windows

(* [skip] when the backend cannot run here: tests assert nothing but
   stay visible in the list, so a CI log shows what was exercised. *)
let native_test f () =
  if Native.available () then f ()
  else print_endline "native backend unavailable; skipping"

(* ------------------------------------------------------------------ *)
(* Stubs-level tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_guard_probe () =
  (* reading the guard region faults and the probe recovery path
     catches it: the PROT_NONE mapping is really there *)
  Alcotest.(check bool) "guard read traps" true (Native.probe_guard ())

let test_unknown_pc_default () =
  (* a fault whose PC is in no registered module must not be swallowed:
     the handler chains to the previously installed action, which in a
     bare forked child is the default — death by SIGSEGV (11) *)
  Alcotest.(check int) "child dies by SIGSEGV" 11 (Native.fork_unknown_pc ())

let test_nested_trap_aborts () =
  (* trapping while already recovering from a trap is a broken-runtime
     state; the handler must abort deliberately (SIGABRT, 6) rather
     than loop *)
  Alcotest.(check int) "child dies by SIGABRT" 6 (Native.fork_nested_trap ())

(* ------------------------------------------------------------------ *)
(* Emission statistics                                                 *)
(* ------------------------------------------------------------------ *)

(* A loop dereferencing a field: after new-full compilation the check
   in the loop is implicit, and the native emission must spend zero
   instructions on it. *)
let field_loop () =
  let open Builder in
  let b = create ~name:"main" ~params:[] () in
  let p = fresh b in
  emit b (New_object (p, "Point"));
  putfield b ~obj:p H.fld_x (Cint 7);
  let acc = fresh b in
  let t = fresh b in
  emit b (Move (acc, Cint 0));
  let i = fresh b in
  count_do b ~v:i ~from:(Cint 0) ~limit:(Cint 100) (fun b ->
      getfield b ~dst:t ~obj:p H.fld_x;
      emit b (Binop (acc, Add, Var acc, Var t)));
  terminate b (Return (Some (Var acc)));
  H.program_of [ finish b ] "main"

(* new-full can prove the receiver non-null and delete the check
   entirely; no-null-opt-trap keeps every check and converts the
   deref-adjacent ones to implicit — the shape this test is about *)
let compiled_field_loop () =
  (Compiler.compile Config.no_null_opt_trap ~arch:ia32 (field_loop ()))
    .Compiler.program

let emit_stats p =
  match Emit_c.emit ~trap_area:ia32.Arch.trap_area p with
  | Ok em -> em.Emit_c.em_stats
  | Error msg -> Alcotest.failf "emission unsupported: %s" msg

let test_zero_implicit_instrs () =
  let p = compiled_field_loop () in
  let implicit = Ir.count_checks ~kind:Ir.Implicit (Hashtbl.find p.Ir.funcs "main") in
  Alcotest.(check bool) "compilation produced implicit checks" true (implicit > 0);
  let st = emit_stats p in
  Alcotest.(check int)
    "implicit checks emit zero instructions" 0
    st.Emit_c.ec_implicit_check_instrs;
  Alcotest.(check int) "every implicit site is in the stats" implicit
    st.Emit_c.ec_implicit_sites;
  Alcotest.(check bool) "trap table is populated" true
    (st.Emit_c.ec_trap_entries > 0)

let test_compiler_native_stats () =
  let cfg = { Config.new_full with Config.backend = Config.Native } in
  let c = Compiler.compile cfg ~arch:ia32 (field_loop ()) in
  match c.Compiler.native_stats with
  | None -> Alcotest.fail "native backend config produced no emission stats"
  | Some st ->
    Alcotest.(check int) "zero implicit-check instructions" 0
      st.Emit_c.ec_implicit_check_instrs

(* ------------------------------------------------------------------ *)
(* Native execution                                                    *)
(* ------------------------------------------------------------------ *)

let run_native p =
  match Native.run_program ~arch:ia32 p with
  | Ok r -> r
  | Error msg -> Alcotest.failf "native run failed: %s" msg

let test_native_matches_interp () =
  let p = compiled_field_loop () in
  let r = run_native p in
  let i = Interp.run ~arch:ia32 p [] in
  Alcotest.(check bool) "native ~ interp" true
    (Interp.equivalent r.Native.r_result i);
  match r.Native.r_result.Interp.outcome with
  | Interp.Returned (Some (Value.Vint 700)) -> ()
  | o -> Alcotest.failf "unexpected native outcome: %a" Interp.pp_outcome o

(* A null dereference guarded by an implicit check inside a try region:
   the SIGSEGV must recover to the handler with the check's own site in
   the trap log. *)
let null_trap_program () =
  let open Builder in
  let b = create ~name:"main" ~params:[] () in
  let r = fresh b in
  with_try b
    ~handler:(fun b -> emit b (Move (r, Cint (-1))))
    (fun b ->
      let x = fresh b in
      emit b (Move (x, Cnull));
      let t = fresh b in
      getfield b ~dst:t ~obj:x H.fld_x;
      emit b (Move (r, Var t)));
  terminate b (Return (Some (Var r)));
  H.program_of [ finish b ] "main"

let implicit_sites (p : Ir.program) : Ir.site list =
  let acc = ref [] in
  Ir.iter_funcs
    (fun f ->
      Array.iter
        (fun (b : Ir.block) ->
          Array.iter
            (fun i ->
              match i with
              | Ir.Null_check (Ir.Implicit, _, s) -> acc := s :: !acc
              | _ -> ())
            b.Ir.instrs)
        f.Ir.fn_blocks)
    p;
  !acc

let test_trap_recovers_to_site () =
  (* force the check implicit ourselves so the trap must fire *)
  let c = Compiler.compile Config.new_full ~arch:ia32 (null_trap_program ()) in
  let p = c.Compiler.program in
  match implicit_sites p with
  | [] ->
    (* the optimizer may have proven the branch dead; the fixture is
       then useless — fail loudly so it gets fixed *)
    Alcotest.fail "fixture compiled without an implicit check"
  | sites ->
    let r = run_native p in
    (match r.Native.r_result.Interp.outcome with
    | Interp.Returned (Some (Value.Vint -1)) -> ()
    | o -> Alcotest.failf "handler did not run: %a" Interp.pp_outcome o);
    Alcotest.(check int) "exactly one hardware trap" 1 r.Native.r_traps;
    let s = r.Native.r_trap_sites.(0) in
    Alcotest.(check bool)
      (Printf.sprintf "trap site %d is an implicit check site" s)
      true (List.mem s sites)

(* ------------------------------------------------------------------ *)
(* One translation unit per module                                     *)
(* ------------------------------------------------------------------ *)

let count_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub haystack i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let emit_exn p =
  match Emit_c.emit ~trap_area:ia32.Arch.trap_area p with
  | Ok em -> em
  | Error msg -> Alcotest.failf "emission unsupported: %s" msg

let test_single_tu () =
  let w = Option.get (Nullelim_workloads.Registry.find "javac") in
  let p =
    (Compiler.compile Config.new_full ~arch:ia32 (w.Nullelim_workloads.Workload.build ~scale:1))
      .Compiler.program
  in
  let em = emit_exn p in
  let src = em.Emit_c.em_source and st = em.Emit_c.em_stats in
  Alcotest.(check bool) "several functions" true (st.Emit_c.ec_functions >= 3);
  Alcotest.(check int) "no per-module header" 0 (count_sub src "#include \"prog.h\"");
  Alcotest.(check int) "one ABI version definition" 1
    (count_sub src "#define NE_ABI_VERSION ");
  Alcotest.(check int) "ec_c_bytes is the source length" (String.length src)
    st.Emit_c.ec_c_bytes;
  if Native.available () then begin
    let r = run_native p in
    let i = Interp.run ~arch:ia32 p [] in
    Alcotest.(check bool) "native ~ interp" true (Interp.equivalent r.Native.r_result i);
    match r.Native.r_result.Interp.outcome with
    | Interp.Returned (Some (Value.Vint n)) ->
      Alcotest.(check int) "checksum" (w.Nullelim_workloads.Workload.expected ~scale:1) n
    | o -> Alcotest.failf "unexpected native outcome: %a" Interp.pp_outcome o
  end

(* A bracketed dereference in a block the C compiler proves dead: the
   block goes, its bracket labels with it, and the weak references in
   the site table must resolve to NULL rather than break dlopen. *)
let dead_bracket_program () =
  let open Builder in
  let b = create ~name:"main" ~params:[] () in
  let r = fresh b in
  emit b (Move (r, Cint 5));
  if_then b (Ir.Eq, Cint 0, Cint 1)
    ~then_:(fun b ->
      let x = fresh b in
      emit b (Move (x, Cnull));
      emit b (Null_check (Implicit, x, Ir.fresh_site ()));
      getfield b ~dst:r ~obj:x H.fld_x)
    ();
  terminate b (Return (Some (Var r)));
  H.program_of [ finish b ] "main"

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* A private temporary directory for [f], removed afterwards with all
   it holds. *)
let with_private_dir f =
  let dir = Filename.temp_file "nullelim_test_" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_dead_bracket_loads () =
  let p = dead_bracket_program () in
  let em = emit_exn p in
  Alcotest.(check int) "the dead dereference is bracketed" 1
    em.Emit_c.em_stats.Emit_c.ec_trap_entries;
  let asm =
    with_private_dir (fun dir ->
        let src = Filename.concat dir "m.c" and out = Filename.concat dir "m.s" in
        Out_channel.with_open_bin src (fun oc -> output_string oc em.Emit_c.em_source);
        let cmd =
          Printf.sprintf "%s -O2 -fPIC -fwrapv -fno-strict-aliasing -S -o %s %s"
            (Filename.quote (Native.cc ())) (Filename.quote out) (Filename.quote src)
        in
        Alcotest.(check int) "cc -S succeeds" 0 (Sys.command cmd);
        In_channel.with_open_bin out In_channel.input_all)
  in
  Alcotest.(check int) "-O2 deleted the bracket labels" 0 (count_sub asm "ne_t0_lo:");
  let r = run_native p in
  match r.Native.r_result.Interp.outcome with
  | Interp.Returned (Some (Value.Vint 5)) -> ()
  | o -> Alcotest.failf "unexpected native outcome: %a" Interp.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Failure paths of Native.compile                                     *)
(* ------------------------------------------------------------------ *)

(* Compile [p] with NULLELIM_CC set to [cc] (once the trial compile
   has passed with the real compiler) and temporary files in a private
   directory; returns the result and the module directories left
   behind. *)
let compile_with_cc cc p =
  Alcotest.(check bool) "trial compile passes first" true (Native.available ());
  let saved_cc = Sys.getenv_opt "NULLELIM_CC" in
  let saved_tmp = Filename.get_temp_dir_name () in
  with_private_dir (fun dir ->
      let cc = cc dir in
      Fun.protect
        ~finally:(fun () ->
          Unix.putenv "NULLELIM_CC" (Option.value saved_cc ~default:"");
          Filename.set_temp_dir_name saved_tmp)
        (fun () ->
          Unix.putenv "NULLELIM_CC" cc;
          Filename.set_temp_dir_name dir;
          let r = Native.compile ~arch:ia32 p in
          Result.iter Native.close r;
          let left =
            Sys.readdir dir |> Array.to_list
            |> List.filter (fun e -> String.starts_with ~prefix:"nullelim_native_" e)
          in
          (r, left)))

let expect_error ~prefix (r, left) =
  (match r with
  | Ok _ -> Alcotest.failf "compile succeeded; expected %S" prefix
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S starts with %S" msg prefix)
      true
      (String.starts_with ~prefix msg));
  Alcotest.(check (list string)) "no module directory left behind" [] left

let test_cc_failure () =
  compile_with_cc (fun _ -> "false") (compiled_field_loop ())
  |> expect_error ~prefix:"cc failed"

let test_dlopen_failure () =
  let garbage_cc dir =
    let path = Filename.concat dir "garbage-cc" in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc
          "#!/bin/sh\n\
           while [ \"$#\" -gt 0 ]; do\n\
          \  if [ \"$1\" = -o ]; then echo garbage > \"$2\"; fi\n\
          \  shift\n\
           done\n");
    Unix.chmod path 0o755;
    path
  in
  compile_with_cc garbage_cc (compiled_field_loop ())
  |> expect_error ~prefix:"dlopen failed: "

(* ------------------------------------------------------------------ *)
(* Differential fuzz smoke                                             *)
(* ------------------------------------------------------------------ *)

let test_fuzz_smoke () =
  let fails = ref [] in
  for seed = 0 to 99 do
    match (Gen.generate ~seed ()).Gen.g_program |> Diff.check_native with
    | Diff.Pass | Diff.Skip _ -> ()
    | Diff.Fail f -> fails := (seed, Fmt.str "%a" Diff.pp_failure f) :: !fails
  done;
  match !fails with
  | [] -> ()
  | (seed, msg) :: _ ->
    Alcotest.failf "%d seeds diverged; first: seed %d: %s" (List.length !fails)
      seed msg

let () =
  Alcotest.run "native"
    [
      ( "stubs",
        [
          Alcotest.test_case "guard probe" `Quick (native_test test_guard_probe);
          Alcotest.test_case "unknown fault PC re-raises default" `Quick
            (native_test test_unknown_pc_default);
          Alcotest.test_case "nested trap aborts" `Quick
            (native_test test_nested_trap_aborts);
        ] );
      ( "emission",
        [
          Alcotest.test_case "implicit checks cost zero instructions" `Quick
            test_zero_implicit_instrs;
          Alcotest.test_case "Compiler.compile surfaces native stats" `Quick
            test_compiler_native_stats;
        ] );
      ( "execution",
        [
          Alcotest.test_case "workload runs natively, matches interp" `Quick
            (native_test test_native_matches_interp);
          Alcotest.test_case "null deref recovers to the check's site" `Quick
            (native_test test_trap_recovers_to_site);
        ] );
      ( "single TU",
        [
          Alcotest.test_case "multi-function module is one source" `Quick
            test_single_tu;
          Alcotest.test_case "dead bracket labels resolve weakly" `Quick
            (native_test test_dead_bracket_loads);
        ] );
      ( "cc failures",
        [
          Alcotest.test_case "cc failure cleans up" `Quick
            (native_test test_cc_failure);
          Alcotest.test_case "dlopen failure cleans up" `Quick
            (native_test test_dlopen_failure);
        ] );
      ( "differential",
        [
          Alcotest.test_case "100-seed native vs interp smoke" `Quick
            (native_test test_fuzz_smoke);
        ] );
    ]
