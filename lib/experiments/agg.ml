(* Shared aggregation helpers for multi-seed experiment sweeps: the
   matrix driver (lib/scenario) and Fig3 fold their runs through these. *)

let mean f xs =
  List.fold_left (fun acc x -> acc +. f x) 0.0 xs /. float_of_int (List.length xs)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let median_opt times =
  let converged = List.filter_map Fun.id times in
  (* Majority rule: report the median only when most runs produced a
     value; otherwise the cell is "did not converge". *)
  if 2 * List.length converged < List.length times + 1 then None
  else begin
    let sorted = List.sort Float.compare converged in
    Some (List.nth sorted (List.length sorted / 2))
  end

let chunks k xs =
  let rec take k acc rest =
    if k = 0 then (List.rev acc, rest)
    else
      match rest with
      | x :: tl -> take (k - 1) (x :: acc) tl
      | [] -> invalid_arg "Agg.chunks: list length not a multiple of k"
  in
  let rec go = function
    | [] -> []
    | xs ->
        let group, rest = take k [] xs in
        group :: go rest
  in
  if k <= 0 then invalid_arg "Agg.chunks: k must be positive" else go xs
