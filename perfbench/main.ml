(* Benchmark entry point:

     main.exe --workload compile|execute|serve --seed N --seconds S --trace 0|1

   prints one row per metric (name, value, unit, sample count) and, as
   its last line, the JSON result.  The metric names come from
   BENCHMARK.json in the working directory: with --trace 0 every
   end-to-end metric, with --trace 1 every per-layer metric.  A layer
   the workload does not exercise reports 0. *)

module Json = Nullelim_obs.Obs_json
open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload compile|execute|serve --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured run length");
      ("--trace", Arg.Set_int trace, " 1 = traced per-layer run");
    ]
    (fun _ -> usage ())
    "perfbench";
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  (!workload, !seed, !seconds, !trace = 1)

(* (name, unit) of each metric in one list of BENCHMARK.json *)
let declared key =
  let doc =
    let ic = open_in_bin "BENCHMARK.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.of_string s with Ok d -> d | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  match Option.bind (Json.member key doc) Json.to_list with
  | None -> failwith ("BENCHMARK.json: no list " ^ key)
  | Some l ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.Str n), Some (Json.Str u) -> (n, u)
        | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
      l

let print_table () =
  List.iter
    (fun e ->
      Printf.printf "%-34s %16.6g %-6s n=%-7d %s\n" e.name e.value e.unit_ e.samples e.note)
    (List.rev !entries)

let () =
  let workload, seed, seconds, trace = args () in
  let run =
    match workload with
    | "compile" -> Wl_compile.run
    | "execute" -> Wl_execute.run
    | "serve" -> Wl_serve.run
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  let wanted = declared (if trace then "per_layer" else "end_to_end") in
  run ~seed ~seconds ~trace;
  add ~samples:ops.attempted "heap_peak_mb" "MB" (heap_peak_mb ());
  add ~samples:ops.attempted "fail_frac" "ratio"
    (float_of_int ops.failed /. float_of_int (max 1 ops.attempted));
  if Samples.length reference > 0 then
    add ~samples:(Samples.length reference) "ref.kernel_ms" "ms"
      (Stats.median (Samples.to_array reference));
  print_table ();
  let metrics =
    List.map
      (fun (name, unit_) ->
        let value =
          match find name with
          | Some e when e.unit_ = unit_ && Float.is_finite e.value -> e.value
          | Some e ->
            Printf.eprintf "metric %s reads %g %s, declared in %s\n" name e.value e.unit_
              unit_;
            exit 3
          | None when trace ->
            Printf.printf "%-34s %16s %-6s not exercised by this workload\n" name "0" unit_;
            0.
          | None ->
            Printf.eprintf "end-to-end metric %s not measured\n" name;
            exit 3
        in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit_)
      wanted
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (ops.failed = 0 && ops.attempted > 0)
    ops.attempted ops.failed (String.concat ", " metrics)
