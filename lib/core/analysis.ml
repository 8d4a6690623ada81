type pair_stat = {
  nf1 : string;
  nf2 : string;
  weight : float;
  verdict : Dependency.verdict;
}

type summary = {
  pairs : pair_stat list;
  parallelizable_pct : float;
  no_copy_pct : float;
  with_copy_pct : float;
}

let run_kinds ?field_sensitive_write_read population =
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 population in
  let population = List.map (fun (k, p) -> (k, p /. total)) population in
  let pairs =
    List.concat_map
      (fun (k1, p1) ->
        List.map
          (fun (k2, p2) ->
            let r = Parallelism.analyze_kinds ?field_sensitive_write_read k1 k2 in
            { nf1 = k1; nf2 = k2; weight = p1 *. p2; verdict = Parallelism.verdict r })
          population)
      population
  in
  let pct want =
    100.0
    *. List.fold_left
         (fun acc p -> if List.mem p.verdict want then acc +. p.weight else acc)
         0.0 pairs
  in
  {
    pairs;
    parallelizable_pct = pct [ Dependency.Parallel_no_copy; Dependency.Parallel_with_copy ];
    no_copy_pct = pct [ Dependency.Parallel_no_copy ];
    with_copy_pct = pct [ Dependency.Parallel_with_copy ];
  }

let run ?field_sensitive_write_read () =
  run_kinds ?field_sensitive_write_read (Nfp_nf.Registry.weighted_kinds ())

let pp fmt s =
  Format.fprintf fmt
    "@[<v>NF pairs parallelizable: %.1f%% (no copy: %.1f%%, with copy: %.1f%%)@,"
    s.parallelizable_pct s.no_copy_pct s.with_copy_pct;
  List.iter
    (fun p ->
      Format.fprintf fmt "  %-14s before %-14s %5.2f%%  %a@," p.nf1 p.nf2 (100.0 *. p.weight)
        Dependency.pp_verdict p.verdict)
    s.pairs;
  Format.fprintf fmt "@]"
