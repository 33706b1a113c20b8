(* Order statistics for the benchmark's reports.  Percentiles are
   nearest-rank on the sorted samples, so every reported value is a
   value that was actually measured. *)

let sorted (a : float array) =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* 1-based nearest rank of quantile [q] among [n] samples *)
let rank n q = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan else s.(rank n q - 1)

let quantile a q = quantile_sorted (sorted a) q

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* A tail percentile is reported only when at least [min_beyond]
   samples lie strictly above its rank; otherwise [Error n]. *)
let min_beyond = 10

let tail a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 || n - rank n q < min_beyond then Error n
  else Ok (quantile_sorted s q)

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let geomean a =
  if Array.length a = 0 then nan
  else
    exp (Array.fold_left (fun acc x -> acc +. log x) 0. a
         /. float_of_int (Array.length a))

(* Ranks with ties averaged, for Spearman's correlation. *)
let ranks a =
  let n = Array.length a in
  let idx = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare a.(i) a.(j)) idx;
  let r = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && a.(idx.(!j + 1)) = a.(idx.(!i)) do incr j done;
    let avg = float_of_int (!i + !j) /. 2. +. 1. in
    for k = !i to !j do r.(idx.(k)) <- avg done;
    i := !j + 1
  done;
  r

let pearson x y =
  let mx = mean x and my = mean y in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  Array.iteri
    (fun i xi ->
      let dx = xi -. mx and dy = y.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy))
    x;
  if !sxx = 0. || !syy = 0. then nan else !sxy /. sqrt (!sxx *. !syy)

let spearman x y = pearson (ranks x) (ranks y)

(* Seeded Fisher-Yates shuffle (in place). *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done
