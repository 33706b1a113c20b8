(* Native check and trap costs from repeated [Native_bench.collect]
   samples.  A per-check cost is a difference of two kernel times, so
   below the spread of the samples it is noise: the table then says
   "below resolution (± x ns)" and the metric reads 0, never a negative
   cost. *)

open Common
module Native_bench = Nullelim_experiments.Native_bench

let samples = 5

let measure () =
  let rs =
    List.filter_map
      (fun _ ->
        match Native_bench.collect ~arch:Nullelim.Arch.ia32_windows () with
        | Ok r -> Some r
        | Error m ->
          fail "native kernels: %s" m;
          None)
      (List.init samples Fun.id)
  in
  let k = List.length rs in
  if k > 0 then begin
    let col f = Array.of_list (List.map f rs) in
    let noise a = (Stats.quantile a 1. -. Stats.quantile a 0.) /. 2. in
    let per_check name a =
      let m = Stats.median a and x = noise a in
      if m <= x then
        add ~samples:k ~note:(Printf.sprintf "below resolution (± %.3g ns)" x) name "ns" 0.
      else add ~samples:k ~note:(Printf.sprintf "± %.3g ns" x) name "ns" m
    in
    let ex = col (fun r -> r.Native_bench.nb_explicit_check_ns)
    and im = col (fun r -> r.Native_bench.nb_implicit_check_ns) in
    per_check "backend.explicit_check_ns" ex;
    per_check "backend.implicit_check_ns" im;
    add ~samples:k ~note:"half the range of the per-check samples"
      "backend.check_noise_ns" "ns" (Float.max (noise ex) (noise im));
    let tr = col (fun r -> r.Native_bench.nb_recovery_ns) in
    add ~samples:k ~note:(Printf.sprintf "± %.3g ns" (noise tr)) "backend.trap_ns" "ns"
      (Stats.median tr)
  end
