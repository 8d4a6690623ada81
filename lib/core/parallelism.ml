type result = {
  parallelizable : bool;
  conflicting_actions : (Nfp_nf.Action.t * Nfp_nf.Action.t) list;
  blocking : (Nfp_nf.Action.t * Nfp_nf.Action.t) option;
}

(* Algorithm 1: iterate over every action pair; a gray pair ends the
   analysis, orange pairs accumulate as conflicting actions. *)
let analyze ?field_sensitive_write_read p1 p2 =
  let conflicts = ref [] in
  let gray = ref None in
  List.iter
    (fun a1 ->
      List.iter
        (fun a2 ->
          if !gray = None then
            match Dependency.action_pair ?field_sensitive_write_read a1 a2 with
            | Dependency.Not_parallelizable -> gray := Some (a1, a2)
            | Dependency.Parallel_with_copy -> conflicts := (a1, a2) :: !conflicts
            | Dependency.Parallel_no_copy -> ())
        p2)
    p1;
  match !gray with
  | Some _ as blocking -> { parallelizable = false; conflicting_actions = []; blocking }
  | None ->
      { parallelizable = true; conflicting_actions = List.rev !conflicts; blocking = None }

let analyze_kinds ?field_sensitive_write_read k1 k2 =
  analyze ?field_sensitive_write_read
    (Nfp_nf.Registry.profile_of k1)
    (Nfp_nf.Registry.profile_of k2)

let verdict r =
  if not r.parallelizable then Dependency.Not_parallelizable
  else if r.conflicting_actions = [] then Dependency.Parallel_no_copy
  else Dependency.Parallel_with_copy
